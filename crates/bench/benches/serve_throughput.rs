//! Closed-loop serving throughput: N client threads issue repeated
//! Black Scholes pipeline requests against
//!
//! * **service** — one [`mozart_serve::PipelineService`]: a shared
//!   worker pool and a shared plan cache across all clients;
//! * **independent** — the pre-serve status quo: every request builds
//!   its own `MozartContext`, which spawns its own worker pool and
//!   replans from scratch;
//! * **independent-reused** — a softer baseline: one context (and pool)
//!   per client thread, reused across requests, but still replanning
//!   every evaluation.
//!
//! Reports aggregate requests/sec, per-request p50/p99 latency, and the
//! service's plan-cache hit rate; writes
//! `bench_results/BENCH_serve.json`. The acceptance bar for the serve
//! PR: the service beats `independent` on aggregate requests/sec with 4
//! concurrent clients and serves repeats at a >90% plan-cache hit rate.
//!
//! Two additional phases exercise the QoS work:
//!
//! * **Fair-share**: 2 hot sessions (2 closed-loop threads each,
//!   weight 1) flood the service while 1 cold session (1 thread,
//!   weight 2) runs a fixed request count. The cold session's share of
//!   served pool batches during its window is reported; the
//!   acceptance bar is cold share within 2x of its weight-proportional
//!   share under the pool's deficit-weighted round-robin, with every
//!   response checksum identical to the uncontended reference.
//! * **Coalescing**: concurrent fingerprint-identical requests
//!   (same `n`, distinct seeds) against a `max_inflight=1` service.
//!   Queued requests must coalesce (`coalesced_requests > 0` is
//!   asserted — the CI smoke gate) and every response must equal its
//!   separately-evaluated reference.
//! * **Fault recovery**: the same closed-loop load against a service
//!   whose session config carries a seeded [`mozart_core::FaultPlan`]
//!   injecting task-phase panics (plus one deterministic panic so even
//!   smoke runs see a fault). Every faulted request must recover through
//!   the retry layer with a bit-identical response, no request may fail,
//!   and on runs of ≥ 40 requests the faulty wall time must stay within
//!   1.3x of the fault-free wall time.
//! * **Tracing overhead**: the identical closed-loop load with the
//!   observability layer off, then on. On runs of ≥ 40 requests the
//!   tracing-on wall time must stay within 1.05x of tracing-off (plus a
//!   small smoke-run slack), bodies must be bit-identical both ways,
//!   and the tracing-on run's histogram-derived p50/p99/p999 — end to
//!   end, admission wait, and per executor phase — land in the JSON
//!   snapshot.
//! * **Overload**: the closed-loop peak goodput of the adaptive
//!   (AIMD-limited) service is measured, then a paced open-loop drive
//!   offers 2x that rate through `try_call`. Excess load must shed
//!   with a *typed* error (`saturated`/`queue_shed`/`over_memory` —
//!   anything else aborts the bench), every admitted response must be
//!   bit-identical to the reference, and on runs of ≥ 40 *offered*
//!   requests the admitted goodput must stay ≥ 70% of the closed-loop
//!   peak. The statically pinned `max_inflight` ablation runs under
//!   the same offered load for comparison.
//! * **Breaker**: a deterministic fault budget opens the black_scholes
//!   circuit breaker; the open-state fast-fail latency must be ≥ 5x
//!   under the healthy evaluation latency, and once the faults clear
//!   the pipeline must recover within exactly one half-open probe.
//!
//! Env knobs: `MOZART_SERVE_CLIENTS` (default 4),
//! `MOZART_SERVE_REQUESTS` per client (default 60, scaled by
//! `MOZART_BENCH_SCALE`), `MOZART_SERVE_N` elements per request
//! (default 16384, scaled), plus the usual `MOZART_BENCH_*`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mozart_bench::{write_results, BenchOpts};
use mozart_core::{Config, FaultKind, FaultPhase, FaultPlan, FaultPoint, MozartContext};
use mozart_serve::{HistogramSnapshot, PipelineService, Request, ServeError, ServiceMetrics};
use workloads::black_scholes as bs;

const WORKERS: usize = 4;

struct ModeResult {
    name: &'static str,
    wall: Duration,
    latencies: Vec<Duration>,
}

impl ModeResult {
    fn requests(&self) -> usize {
        self.latencies.len()
    }

    fn rps(&self) -> f64 {
        self.requests() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn percentile(&self, p: f64) -> Duration {
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        if sorted.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx]
    }
}

/// Run `clients` closed-loop threads, each issuing `requests` calls of
/// `work`, and collect per-request latencies.
fn drive(
    name: &'static str,
    clients: usize,
    requests: usize,
    work: impl Fn(usize, usize) + Send + Sync,
) -> ModeResult {
    let work = &work;
    let t0 = Instant::now();
    let latencies = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(requests);
                    for r in 0..requests {
                        let t = Instant::now();
                        work(c, r);
                        lat.push(t.elapsed());
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    ModeResult {
        name,
        wall: t0.elapsed(),
        latencies,
    }
}

/// Result of one fair-share run (see the module docs).
struct FairShare {
    /// Total batches served per session over the cold session's window:
    /// `(hot1, hot2, cold)`.
    batch_deltas: [u64; 3],
    /// Of those, batches served by *pool workers* — the contended
    /// capacity the scheduler divides; submitting callers always run
    /// their own jobs, so their share is demand, not scheduling.
    worker_deltas: [u64; 3],
    /// Cold session wall time for its fixed request count.
    cold_wall: Duration,
    /// Every response (hot and cold) matched its reference body.
    checksums_ok: bool,
}

impl FairShare {
    /// Cold's share of worker-served batches (the scheduled resource);
    /// falls back to the total-batch share when the pool workers never
    /// ran in the window (e.g. a single-core host drains every job on
    /// its caller).
    fn cold_share(&self) -> f64 {
        let workers: u64 = self.worker_deltas.iter().sum();
        if workers > 0 {
            return self.worker_deltas[2] as f64 / workers as f64;
        }
        self.cold_demand_share()
    }

    /// Cold's share of *all* batches in the window — the ceiling a
    /// closed-loop session can reach: one thread can only demand so
    /// much, no scheduler can serve batches it never submits.
    fn cold_demand_share(&self) -> f64 {
        let total: u64 = self.batch_deltas.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.batch_deltas[2] as f64 / total as f64
    }

    /// The share cold is *entitled* to: its weight-proportional share
    /// of the pool, capped by what it actually demanded (a closed-loop
    /// client that submits 20% of the load is entitled to at most 20%,
    /// whatever its weight).
    fn cold_entitled_share(&self, weight_share: f64) -> f64 {
        weight_share.min(self.cold_demand_share())
    }
}

/// Expected response body for one `(n, seed)` black_scholes request.
fn reference_body(n: usize, seed: u64) -> String {
    let s = bs::mkl_base(&bs::generate(n, seed));
    format!("call_sum={:.6} put_sum={:.6}", s.call_sum, s.put_sum)
}

/// 2 hot sessions (2 threads each, weight 1) flood the service while a
/// cold session (1 thread, weight 2) runs `cold_requests`; per-session
/// batch shares are measured over the cold session's window.
fn fair_share_run(cold_requests: usize, n: usize, session_config: &Config) -> FairShare {
    // Fine-grained batches: many scheduling decisions per job, so the
    // measured shares reflect the pick policy rather than a handful of
    // coarse claims.
    let mut session_config = session_config.clone();
    session_config.batch_override = Some(((n as u64) / 32).max(256));
    // Admission must not be the bottleneck here: its queue is FIFO by
    // contract, so contention has to land on the *pool*, where the
    // deficit-weighted pick arbitrates — every session's evaluation
    // runs concurrently and the pool workers choose whose batches to
    // serve.
    let service = PipelineService::builder()
        .workers(WORKERS)
        .max_inflight(8)
        .queue_depth(32)
        .session_config(session_config)
        .coalescing(false) // isolate scheduling from request merging
        .builtin_pipelines()
        .build();
    let hot1 = Arc::new(service.session());
    let hot2 = Arc::new(service.session());
    let cold = Arc::new(service.session());
    cold.set_weight(2);

    let seeds = [11u64, 22, 33];
    let refs: Vec<String> = seeds.iter().map(|&s| reference_body(n, s)).collect();
    // Warm inputs + plan cache so the window measures steady state.
    for (i, &seed) in seeds.iter().enumerate() {
        let resp = hot1
            .call(
                "black_scholes",
                &Request::new().with("n", n).with("seed", seed),
            )
            .expect("warmup");
        assert_eq!(resp.body, refs[i], "warmup checksum");
    }

    let stop = Arc::new(AtomicBool::new(false));
    let ok = Arc::new(AtomicBool::new(true));
    let before = service.stats().pool;
    let batches_of = |stats: &mozart_core::PoolStats, id: u64| {
        stats
            .sessions
            .iter()
            .find(|s| s.session == id)
            .map(|s| (s.batches, s.worker_batches))
            .unwrap_or((0, 0))
    };
    let (cold_wall, after) = std::thread::scope(|s| {
        let mut hot_threads = Vec::new();
        for (session, seed_idx) in [(&hot1, 0usize), (&hot1, 0), (&hot2, 1), (&hot2, 1)] {
            let session = Arc::clone(session);
            let stop = stop.clone();
            let ok = ok.clone();
            let req = Request::new().with("n", n).with("seed", seeds[seed_idx]);
            let want = refs[seed_idx].clone();
            hot_threads.push(s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match session.call("black_scholes", &req) {
                        Ok(resp) => {
                            if resp.body != want {
                                ok.store(false, Ordering::Relaxed);
                            }
                        }
                        Err(e) => panic!("hot request failed: {e}"),
                    }
                }
            }));
        }
        let t0 = Instant::now();
        let req = Request::new().with("n", n).with("seed", seeds[2]);
        for _ in 0..cold_requests {
            let resp = cold.call("black_scholes", &req).expect("cold request");
            if resp.body != refs[2] {
                ok.store(false, Ordering::Relaxed);
            }
        }
        let cold_wall = t0.elapsed();
        let after = service.stats().pool;
        stop.store(true, Ordering::Relaxed);
        for h in hot_threads {
            h.join().expect("hot thread");
        }
        (cold_wall, after)
    });

    let delta = |id: u64| {
        let (b0, w0) = batches_of(&before, id);
        let (b1, w1) = batches_of(&after, id);
        (b1 - b0, w1 - w0)
    };
    let (h1, h2, c) = (delta(hot1.id()), delta(hot2.id()), delta(cold.id()));
    FairShare {
        batch_deltas: [h1.0, h2.0, c.0],
        worker_deltas: [h1.1, h2.1, c.1],
        cold_wall,
        checksums_ok: ok.load(Ordering::Relaxed),
    }
}

/// Result of the coalescing phase.
struct Coalescing {
    requests: u64,
    coalesced: u64,
    checksums_ok: bool,
}

/// Hammer a `max_inflight=1` service with fingerprint-identical
/// requests from several threads; queued requests must coalesce
/// through the generic split-layer path and every response must match
/// its separately-evaluated reference. `pipeline` + `request` + `want`
/// parameterize the workload, so one harness gates the vector and the
/// image pipeline families.
fn coalescing_run(
    clients: usize,
    requests: usize,
    pipeline: &str,
    request: impl Fn(u64) -> Request + Sync,
    want: impl Fn(u64) -> String + Sync,
    session_config: &Config,
) -> Coalescing {
    let service = PipelineService::builder()
        .workers(WORKERS)
        .max_inflight(1)
        .queue_depth(4 * clients.max(1))
        .session_config(session_config.clone())
        .builtin_pipelines()
        .build();
    let ok = Arc::new(AtomicBool::new(true));
    let served = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let session = service.session();
                let ok = ok.clone();
                let served = served.clone();
                // Distinct seed per client: coalesced batches really
                // concatenate different inputs and must split the
                // outputs back correctly.
                let seed = 100 + c as u64;
                let want = want(seed);
                let req = request(seed);
                s.spawn(move || {
                    for _ in 0..requests {
                        let resp = session.call(pipeline, &req).expect("request");
                        if resp.body != want {
                            ok.store(false, Ordering::Relaxed);
                        }
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });
    Coalescing {
        requests: served.load(Ordering::Relaxed),
        coalesced: service.stats().coalesced_requests,
        checksums_ok: ok.load(Ordering::Relaxed),
    }
}

/// Result of the fault-recovery phase.
struct FaultRecovery {
    requests: u64,
    injected: u64,
    retries: u64,
    clean_wall: Duration,
    faulty_wall: Duration,
    checksums_ok: bool,
}

impl FaultRecovery {
    fn overhead_ratio(&self) -> f64 {
        self.faulty_wall.as_secs_f64() / self.clean_wall.as_secs_f64().max(1e-9)
    }
}

/// Drive the closed-loop load twice — fault-free, then with a seeded
/// task-panic plan — and compare wall time. The per-check rate is tiny
/// (panics are injected per *batch boundary check*, of which a request
/// has hundreds), so roughly a percent of requests hit a fault; one
/// deterministic extra point guarantees at least one fault even on
/// smoke-sized runs.
fn fault_recovery_run(
    clients: usize,
    requests: usize,
    n: usize,
    session_config: &Config,
) -> FaultRecovery {
    mozart_core::faultinject::silence_injected_panics();
    let want = reference_body(n, 42);
    let run = |plan: Option<Arc<FaultPlan>>| {
        let mut cfg = session_config.clone();
        cfg.fault_plan = plan;
        let service = PipelineService::builder()
            .workers(WORKERS)
            .max_inflight(clients)
            .queue_depth(2 * clients)
            .max_retries(4)
            .retry_backoff_ms(1)
            .session_config(cfg)
            .coalescing(false)
            .builtin_pipelines()
            .build();
        let sessions: Vec<_> = (0..clients).map(|_| service.session()).collect();
        // Warm inputs + plan cache outside the measured window (the
        // warmup itself may hit the deterministic fault and recover).
        sessions[0]
            .call(
                "black_scholes",
                &Request::new().with("n", n).with("seed", 42u64),
            )
            .expect("fault-recovery warmup");
        let ok = Arc::new(AtomicBool::new(true));
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for session in &sessions {
                let ok = ok.clone();
                let want = &want;
                let req = Request::new().with("n", n).with("seed", 42u64);
                s.spawn(move || {
                    for _ in 0..requests {
                        // No request may fail: every injected panic must
                        // be absorbed by the retry layer.
                        let resp = session
                            .call("black_scholes", &req)
                            .expect("fault-recovery request");
                        if resp.body != *want {
                            ok.store(false, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let wall = t0.elapsed();
        let stats = service.stats();
        assert_eq!(stats.failed, 0, "no request may fail under injection");
        (wall, stats, ok.load(Ordering::Relaxed))
    };

    let (clean_wall, _, clean_ok) = run(None);
    let plan = Arc::new(
        FaultPlan::seeded(0xFA17, 50, Some(FaultPhase::Task), FaultKind::Panic)
            .point(FaultPoint::once(FaultPhase::Task, FaultKind::Panic)),
    );
    let (faulty_wall, stats, faulty_ok) = run(Some(plan.clone()));
    FaultRecovery {
        requests: (clients * requests) as u64,
        injected: plan.fired(),
        retries: stats.retries,
        clean_wall,
        faulty_wall,
        checksums_ok: clean_ok && faulty_ok,
    }
}

/// Result of the tracing-overhead phase.
struct TracingOverhead {
    off_wall: Duration,
    on_wall: Duration,
    checksums_ok: bool,
    /// Serve-side histograms from the tracing-on run.
    metrics: ServiceMetrics,
}

impl TracingOverhead {
    fn ratio(&self) -> f64 {
        self.on_wall.as_secs_f64() / self.off_wall.as_secs_f64().max(1e-9)
    }
}

/// Drive the identical closed-loop load with tracing off and then on.
/// The observability layer must be nearly free (the gate in `main`
/// bounds the wall-time ratio) and must not perturb results: bodies are
/// checked against the same reference both ways.
fn tracing_overhead_run(
    clients: usize,
    requests: usize,
    n: usize,
    session_config: &Config,
) -> TracingOverhead {
    let want = reference_body(n, 42);
    let run = |tracing: bool| {
        let service = PipelineService::builder()
            .workers(WORKERS)
            .max_inflight(clients)
            .queue_depth(2 * clients)
            .session_config(session_config.clone())
            .coalescing(false)
            .tracing(tracing)
            .builtin_pipelines()
            .build();
        let sessions: Vec<_> = (0..clients).map(|_| service.session()).collect();
        let req = Request::new().with("n", n).with("seed", 42u64);
        // Warm inputs + plan cache outside the measured window.
        sessions[0].call("black_scholes", &req).expect("warmup");
        let ok = Arc::new(AtomicBool::new(true));
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for session in &sessions {
                let ok = ok.clone();
                let want = &want;
                let req = req.clone();
                s.spawn(move || {
                    for _ in 0..requests {
                        let resp = session
                            .call("black_scholes", &req)
                            .expect("tracing-overhead request");
                        if resp.body != *want {
                            ok.store(false, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        (t0.elapsed(), service, ok.load(Ordering::Relaxed))
    };
    let (off_wall, _, off_ok) = run(false);
    let (on_wall, traced, on_ok) = run(true);
    let metrics = traced.metrics().expect("tracing was on");
    TracingOverhead {
        off_wall,
        on_wall,
        checksums_ok: off_ok && on_ok,
        metrics,
    }
}

/// Result of one paced open-loop overload run (offered load 2x the
/// measured closed-loop peak).
struct Overload {
    name: &'static str,
    offered: u64,
    admitted: u64,
    shed: u64,
    wall: Duration,
    checksums_ok: bool,
    /// The admission limit at the end of the run (AIMD-moved for the
    /// adaptive service, pinned for the static ablation).
    admission_limit: usize,
    queue_shed: u64,
}

impl Overload {
    fn goodput(&self) -> f64 {
        self.admitted as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Pace `total` `try_call` arrivals at `offered_rps` across `threads`
/// open-loop threads (each thread follows its own due-time schedule,
/// so a slow admitted call never delays the offered rate for long).
/// Excess load must shed with a typed overload error — anything else
/// panics the bench — and every admitted body is checked against
/// `want`.
fn overload_run(
    name: &'static str,
    service: &PipelineService,
    offered_rps: f64,
    total: usize,
    threads: usize,
    n: usize,
    want: &str,
) -> Overload {
    let admitted = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let ok = AtomicBool::new(true);
    let threads = threads.max(1);
    let per_thread = total.div_ceil(threads);
    let interval = Duration::from_secs_f64(threads as f64 / offered_rps.max(1.0));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let session = service.session();
            let (admitted, shed, ok) = (&admitted, &shed, &ok);
            let req = Request::new().with("n", n).with("seed", 42u64);
            s.spawn(move || {
                let start = Instant::now();
                for i in 0..per_thread {
                    let due = start + interval.mul_f64(i as f64);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    match session.try_call("black_scholes", &req) {
                        Ok(resp) => {
                            admitted.fetch_add(1, Ordering::Relaxed);
                            if resp.body != want {
                                ok.store(false, Ordering::Relaxed);
                            }
                        }
                        Err(
                            ServeError::Saturated { .. }
                            | ServeError::QueueShed { .. }
                            | ServeError::OverMemory { .. },
                        ) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("overload shed must be typed, got {e}"),
                    }
                }
            });
        }
    });
    let (limit, _) = service.admission_limit();
    Overload {
        name,
        offered: (per_thread * threads) as u64,
        admitted: admitted.load(Ordering::Relaxed),
        shed: shed.load(Ordering::Relaxed),
        wall: t0.elapsed(),
        checksums_ok: ok.load(Ordering::Relaxed),
        admission_limit: limit,
        queue_shed: service.stats().queue_shed,
    }
}

/// Result of the breaker phase.
struct BreakerPhase {
    fastfail_p50: Duration,
    eval_p50: Duration,
    recovered_in_one_probe: bool,
    breaker_shed: u64,
}

impl BreakerPhase {
    /// How many open-state fast-fails fit in one healthy evaluation.
    fn ratio(&self) -> f64 {
        self.eval_p50.as_secs_f64() / self.fastfail_p50.as_secs_f64().max(1e-9)
    }
}

fn median(mut lat: Vec<Duration>) -> Duration {
    lat.sort_unstable();
    lat[lat.len() / 2]
}

/// Open the black_scholes breaker with a deterministic fault budget,
/// measure the open-state fast-fail latency against the healthy
/// evaluation latency, and verify recovery within one half-open probe
/// once the faults clear.
fn breaker_run(n: usize, session_config: &Config) -> BreakerPhase {
    const THRESHOLD: u32 = 4;
    let cooldown = Duration::from_millis(250);
    let mut cfg = session_config.clone();
    // Single-batch evaluations: concurrent batches would race for the
    // fault budget (several checks fire per call), breaking the
    // one-failure-per-call accounting below. With one batch per call,
    // each injected task-phase error aborts its evaluation at the first
    // fault check and consumes exactly one budget point: a budget equal
    // to the threshold heals the pipeline the moment the breaker opens,
    // and the first probe must succeed.
    cfg.batch_override = Some((n as u64).max(1));
    cfg.fault_plan = Some(Arc::new(FaultPlan::new().point(
        FaultPoint::once(FaultPhase::Task, FaultKind::Error).times(THRESHOLD as u64),
    )));
    let service = PipelineService::builder()
        .workers(WORKERS)
        .session_config(cfg)
        // No retries: every injected fault is a post-retry transient
        // failure, so THRESHOLD calls open the breaker deterministically.
        .max_retries(0)
        .coalescing(false)
        .breaker(THRESHOLD, cooldown)
        .builtin_pipelines()
        .build();
    let session = service.session();
    let req = Request::new().with("n", n).with("seed", 42u64);
    let want = reference_body(n, 42);

    for i in 0..THRESHOLD {
        let err = session
            .call("black_scholes", &req)
            .expect_err("injected fault");
        assert!(err.is_transient(), "call {i}: {err}");
    }
    assert_eq!(
        service.breaker_states().first().map(|s| s.1),
        Some("open"),
        "breaker must open after {THRESHOLD} consecutive transient failures"
    );

    // Open: every call fast-fails with the typed error. All 32 finish
    // well inside the cooldown, so none of them becomes the probe.
    let mut fastfail = Vec::with_capacity(32);
    for _ in 0..32 {
        let t = Instant::now();
        let err = session
            .call("black_scholes", &req)
            .expect_err("open breaker");
        fastfail.push(t.elapsed());
        assert_eq!(err.kind(), "circuit_open", "{err}");
    }
    let breaker_shed = service.stats().breaker_shed;

    // The fault budget is spent: after one cooldown the next request is
    // the half-open probe, and it must succeed and close the breaker.
    std::thread::sleep(cooldown + Duration::from_millis(50));
    let probe = session.call("black_scholes", &req);
    let recovered_in_one_probe = matches!(&probe, Ok(resp) if resp.body == want);
    assert_eq!(
        service.breaker_states().first().map(|s| s.1),
        Some("closed"),
        "one successful probe must close the breaker"
    );

    let mut eval = Vec::with_capacity(16);
    for _ in 0..16 {
        let t = Instant::now();
        let resp = session.call("black_scholes", &req).expect("healthy call");
        eval.push(t.elapsed());
        assert_eq!(
            resp.body, want,
            "healthy responses must match the reference"
        );
    }
    BreakerPhase {
        fastfail_p50: median(fastfail),
        eval_p50: median(eval),
        recovered_in_one_probe,
        breaker_shed,
    }
}

/// One histogram as a JSON object: count plus derived quantiles in
/// microseconds (samples are recorded in nanoseconds).
fn hist_json(snap: &HistogramSnapshot) -> String {
    format!(
        "{{ \"count\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
         \"p999_us\": {:.1}, \"max_us\": {:.1} }}",
        snap.count,
        snap.p50() as f64 / 1e3,
        snap.p99() as f64 / 1e3,
        snap.p999() as f64 / 1e3,
        snap.max as f64 / 1e3
    )
}

fn main() {
    let opts = BenchOpts::from_env();
    let clients = std::env::var("MOZART_SERVE_CLIENTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4usize)
        .max(1);
    let requests = std::env::var("MOZART_SERVE_REQUESTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| opts.size(60))
        .max(2);
    let n = std::env::var("MOZART_SERVE_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| opts.size(1 << 14));

    println!(
        "serve_throughput: {clients} clients x {requests} requests, \
         black_scholes n={n}, workers={WORKERS}"
    );
    workloads::register_all_defaults();
    let inputs = Arc::new(bs::generate(n, 42));
    // Pin the batch size so every mode runs multi-batch stages (and so
    // exercises its worker pool) regardless of the host's L2 size.
    let mut session_config = Config::with_workers(WORKERS);
    session_config.batch_override = Some((n as u64 / 8).max(1024));

    // ---- Mode A: shared service (pool + plan cache) ----
    let service = PipelineService::builder()
        .workers(WORKERS)
        .max_inflight(clients)
        .queue_depth(2 * clients)
        .session_config(session_config.clone())
        .builtin_pipelines()
        .build();
    // One session per client thread, opened up front.
    let sessions: Vec<_> = (0..clients).map(|_| service.session()).collect();
    let req = Request::new().with("n", n).with("seed", 42u64);
    // Warm the input memoization + plan cache once so the measured
    // window shows steady-state serving (the first request pays
    // generation + planning, like any cold start).
    sessions[0].call("black_scholes", &req).expect("warmup");
    let service_res = drive("service", clients, requests, |c, _| {
        sessions[c]
            .call("black_scholes", &req)
            .expect("service request");
    });
    let cache = service.stats().plan_cache;

    // ---- Mode B: independent context (own pool) per request ----
    let inp = inputs.clone();
    let cfg = session_config.clone();
    let independent_res = drive("independent", clients, requests, move |_, _| {
        let ctx = MozartContext::new(cfg.clone());
        bs::mkl_mozart(&inp, &ctx).expect("independent request");
    });

    // ---- Mode C: one independent context per client, reused ----
    let inp = inputs.clone();
    let contexts: Vec<MozartContext> = (0..clients)
        .map(|_| MozartContext::new(session_config.clone()))
        .collect();
    let contexts = &contexts;
    let reused_res = drive("independent-reused", clients, requests, move |c, _| {
        bs::mkl_mozart(&inp, &contexts[c]).expect("reused request");
    });

    // ---- Report ----
    let modes = [&service_res, &independent_res, &reused_res];
    println!(
        "\n{:>20} {:>10} {:>12} {:>12} {:>12}",
        "mode", "req/s", "p50", "p99", "wall"
    );
    for m in modes {
        println!(
            "{:>20} {:>10.1} {:>11.3}ms {:>11.3}ms {:>11.3}s",
            m.name,
            m.rps(),
            m.percentile(0.50).as_secs_f64() * 1e3,
            m.percentile(0.99).as_secs_f64() * 1e3,
            m.wall.as_secs_f64()
        );
    }
    let hit_rate = cache.hit_rate();
    println!(
        "plan cache: {} hits / {} misses ({:.1}% hit rate, {} entries)",
        cache.hits,
        cache.misses,
        hit_rate * 100.0,
        cache.entries
    );
    let pool = service.stats().pool;
    println!(
        "shared pool: {} jobs over {} sessions, per-session batches {:?}",
        pool.jobs,
        pool.sessions.len(),
        pool.sessions.iter().map(|s| s.batches).collect::<Vec<_>>()
    );
    let service_wins = service_res.rps() > independent_res.rps();
    let hit_rate_ok = hit_rate > 0.90;
    println!("acceptance: service > independent: {service_wins}; hit rate > 90%: {hit_rate_ok}");

    // ---- Fair-share: 2 hot + 1 cold (weight 2) ----
    // A long enough window that per-pick noise averages out even on
    // small hosts (each cold request is ~32 fine-grained batches).
    let cold_requests = (requests * 4).clamp(40, 240);
    let fair = fair_share_run(cold_requests, n, &session_config);
    // Cold holds weight 2 of 4 — its weight-proportional share of the
    // contended pool is 1/2, capped by its own closed-loop demand; the
    // bar is within 2x of that entitlement.
    let weight_share = 0.5;
    let entitled = fair.cold_entitled_share(weight_share);
    let cold_within_2x = fair.cold_share() >= entitled / 2.0;
    println!("\nfair-share (2 hot sessions x 2 threads vs 1 cold thread, weights 1/1/2):");
    println!(
        "    drr: batches hot={}/{} cold={}; worker-served hot={}/{} cold={} \
         cold_share={:.3} cold_wall={:.3}s checksums_ok={}",
        fair.batch_deltas[0],
        fair.batch_deltas[1],
        fair.batch_deltas[2],
        fair.worker_deltas[0],
        fair.worker_deltas[1],
        fair.worker_deltas[2],
        fair.cold_share(),
        fair.cold_wall.as_secs_f64(),
        fair.checksums_ok
    );
    println!(
        "  acceptance: cold share {:.3} within 2x of entitled share {entitled:.3} \
         (= min(weight share {weight_share}, demand share {:.3})): {cold_within_2x}",
        fair.cold_share(),
        fair.cold_demand_share()
    );
    assert!(
        cold_within_2x,
        "cold session share {:.3} fell below half its entitled share {entitled:.3} under DRR",
        fair.cold_share()
    );
    assert!(
        fair.checksums_ok,
        "the fair-share run must produce reference-identical responses"
    );

    // ---- Coalescing: fingerprint-identical requests share evaluations ----
    let co = coalescing_run(
        clients.max(3),
        requests,
        "black_scholes",
        |seed| Request::new().with("n", n).with("seed", seed),
        |seed| reference_body(n, seed),
        &session_config,
    );
    println!(
        "coalescing (vector): {} requests, {} served as followers ({:.1}%), checksums_ok={}",
        co.requests,
        co.coalesced,
        100.0 * co.coalesced as f64 / co.requests.max(1) as f64,
        co.checksums_ok
    );
    // Image pipeline family through the SAME generic coalescer: rows
    // stack through ImageSplit's Concat capability, no pipeline concat
    // code anywhere.
    let (img_w, img_h) = (160usize, 120usize);
    let co_img = coalescing_run(
        clients.max(3),
        requests,
        "nashville",
        |seed| {
            Request::new()
                .with("width", img_w)
                .with("height", img_h)
                .with("seed", seed)
        },
        |seed| {
            let img = workloads::images::generate(img_w, img_h, seed);
            let ctx = workloads::mozart_context(WORKERS);
            let s = workloads::images::nashville_mozart(&img, &ctx).expect("reference");
            format!("mean={:.6}", s.mean)
        },
        &session_config,
    );
    println!(
        "coalescing (image): {} requests, {} served as followers ({:.1}%), checksums_ok={}",
        co_img.requests,
        co_img.coalesced,
        100.0 * co_img.coalesced as f64 / co_img.requests.max(1) as f64,
        co_img.checksums_ok
    );
    // CI smoke gates: both pipeline families must actually coalesce,
    // and coalesced responses must be bit-identical.
    assert!(
        co.coalesced > 0,
        "expected nonzero coalesced_requests on the fingerprint-identical vector workload"
    );
    assert!(
        co.checksums_ok,
        "coalesced vector responses must match separate evaluation"
    );
    assert!(
        co_img.coalesced > 0,
        "expected nonzero coalesced_requests on the fingerprint-identical image workload"
    );
    assert!(
        co_img.checksums_ok,
        "coalesced image responses must match separate evaluation"
    );

    // ---- Fault recovery: seeded panics absorbed by the retry layer ----
    let fr = fault_recovery_run(clients, requests, n, &session_config);
    let fr_ratio = fr.overhead_ratio();
    // Wall-clock noise dominates tiny runs; the 1.3x bar is only
    // meaningful with a reasonable request count.
    let fr_ratio_asserted = fr.requests >= 40;
    println!(
        "fault recovery: {} requests, {} injected faults, {} retries, \
         clean {:.3}s vs faulty {:.3}s (ratio {:.3}), checksums_ok={}",
        fr.requests,
        fr.injected,
        fr.retries,
        fr.clean_wall.as_secs_f64(),
        fr.faulty_wall.as_secs_f64(),
        fr_ratio,
        fr.checksums_ok
    );
    assert!(fr.injected >= 1, "the seeded plan must fire at least once");
    assert!(
        fr.checksums_ok,
        "recovered responses must be bit-identical to fault-free responses"
    );
    if fr_ratio_asserted {
        assert!(
            fr_ratio <= 1.3,
            "fault recovery overhead {fr_ratio:.3}x exceeds the 1.3x bar"
        );
    }

    // ---- Tracing overhead + histogram-derived latency quantiles ----
    let to = tracing_overhead_run(clients, requests, n, &session_config);
    let to_ratio = to.ratio();
    // Same noise rule as fault recovery: the ratio gate only means
    // something with a reasonable request count, and smoke-sized walls
    // get a small absolute slack on top of the 5% bar.
    let to_ratio_asserted = clients * requests >= 40;
    println!(
        "\ntracing overhead: off {:.3}s vs on {:.3}s (ratio {:.3}), checksums_ok={}",
        to.off_wall.as_secs_f64(),
        to.on_wall.as_secs_f64(),
        to_ratio,
        to.checksums_ok
    );
    println!("latency histograms (tracing on):");
    let mut hists: Vec<(&str, &HistogramSnapshot)> = vec![
        ("e2e", &to.metrics.e2e),
        ("admission_wait", &to.metrics.admission_wait),
    ];
    hists.extend(to.metrics.phases.iter().map(|(name, h)| (*name, h)));
    println!(
        "  {:>16} {:>8} {:>11} {:>11} {:>11}",
        "phase", "count", "p50", "p99", "p999"
    );
    for (name, h) in &hists {
        println!(
            "  {:>16} {:>8} {:>10.3}ms {:>10.3}ms {:>10.3}ms",
            name,
            h.count,
            h.p50() as f64 / 1e6,
            h.p99() as f64 / 1e6,
            h.p999() as f64 / 1e6
        );
    }
    assert!(
        to.checksums_ok,
        "tracing must not perturb results: bodies must match the untraced reference"
    );
    assert!(
        to.metrics.e2e.count >= (clients * requests) as u64,
        "every traced request must land in the e2e histogram"
    );
    if to_ratio_asserted {
        assert!(
            to.on_wall.as_secs_f64() <= to.off_wall.as_secs_f64() * 1.05 + 0.05,
            "tracing overhead {to_ratio:.3}x exceeds the 1.05x bar"
        );
    }

    // ---- Overload: paced open-loop drive at 2x the closed-loop peak ----
    // Peak goodput first: the adaptive service (no pinned max_inflight,
    // AIMD + CoDel on) under the same closed-loop drive as mode A.
    let adaptive_service = PipelineService::builder()
        .workers(WORKERS)
        .queue_depth(2 * clients)
        .session_config(session_config.clone())
        .coalescing(false)
        .builtin_pipelines()
        .build();
    let adaptive_sessions: Vec<_> = (0..clients).map(|_| adaptive_service.session()).collect();
    adaptive_sessions[0]
        .call("black_scholes", &req)
        .expect("overload warmup");
    let peak = drive("adaptive-peak", clients, requests, |c, _| {
        adaptive_sessions[c]
            .call("black_scholes", &req)
            .expect("peak request");
    });
    let peak_rps = peak.rps();
    let want = reference_body(n, 42);
    let offered_rps = 2.0 * peak_rps;
    let offered_total = 2 * clients * requests;
    let overload_threads = 2 * clients;
    let over_adaptive = overload_run(
        "adaptive",
        &adaptive_service,
        offered_rps,
        offered_total,
        overload_threads,
        n,
        &want,
    );
    // The static ablation: the pre-PR pinned limit under the identical
    // offered load.
    let static_service = PipelineService::builder()
        .workers(WORKERS)
        .max_inflight(WORKERS)
        .queue_depth(2 * clients)
        .session_config(session_config.clone())
        .coalescing(false)
        .builtin_pipelines()
        .build();
    static_service
        .session()
        .call("black_scholes", &req)
        .expect("static overload warmup");
    let over_static = overload_run(
        "static",
        &static_service,
        offered_rps,
        offered_total,
        overload_threads,
        n,
        &want,
    );
    // The goodput bar keys off the *offered* count (2x the closed-loop
    // total), so even CI smoke runs offer enough load to gate on.
    let overload_asserted = offered_total >= 40;
    let goodput_frac = over_adaptive.goodput() / peak_rps.max(1e-9);
    let goodput_ok = goodput_frac >= 0.70;
    println!(
        "\noverload (offered {:.1} req/s = 2x peak {:.1} req/s, {} paced threads):",
        offered_rps, peak_rps, overload_threads
    );
    for o in [&over_adaptive, &over_static] {
        println!(
            "  {:>8}: offered {} admitted {} shed {} goodput {:.1} req/s \
             ({:.1}% of peak) limit={} queue_shed={} checksums_ok={}",
            o.name,
            o.offered,
            o.admitted,
            o.shed,
            o.goodput(),
            100.0 * o.goodput() / peak_rps.max(1e-9),
            o.admission_limit,
            o.queue_shed,
            o.checksums_ok
        );
    }
    println!(
        "  acceptance: goodput {:.1}% of peak >= 70%: {goodput_ok} (asserted: {overload_asserted})",
        100.0 * goodput_frac
    );
    for o in [&over_adaptive, &over_static] {
        assert!(
            o.checksums_ok,
            "{}: admitted responses must be bit-identical to the reference",
            o.name
        );
        assert!(o.admitted > 0, "{}: overload starved every request", o.name);
        assert_eq!(
            o.admitted + o.shed,
            o.offered,
            "{}: every offered request must be admitted or typed-shed",
            o.name
        );
    }
    if overload_asserted {
        assert!(
            goodput_ok,
            "overload goodput {:.1} req/s fell below 70% of the {peak_rps:.1} req/s peak",
            over_adaptive.goodput()
        );
    }

    // ---- Breaker: open-state fast-fail + one-probe recovery ----
    let br = breaker_run(n, &session_config);
    let br_ratio = br.ratio();
    println!(
        "breaker: fast-fail p50 {:.1}us vs eval p50 {:.1}us (ratio {:.1}x), \
         {} fast-fails shed, recovered_in_one_probe={}",
        br.fastfail_p50.as_secs_f64() * 1e6,
        br.eval_p50.as_secs_f64() * 1e6,
        br_ratio,
        br.breaker_shed,
        br.recovered_in_one_probe
    );
    assert!(
        br.recovered_in_one_probe,
        "the first half-open probe after the faults clear must succeed"
    );
    assert_eq!(
        br.breaker_shed, 32,
        "every open-state call must shed through the breaker"
    );
    assert!(
        br_ratio >= 5.0,
        "open-breaker fast-fail ({:.1}us) must be well under evaluation latency ({:.1}us)",
        br.fastfail_p50.as_secs_f64() * 1e6,
        br.eval_p50.as_secs_f64() * 1e6
    );

    // ---- JSON snapshot ----
    let mut json = String::from("{\n  \"figure\": \"serve_throughput\",\n");
    json.push_str(&format!(
        "  \"clients\": {clients},\n  \"requests_per_client\": {requests},\n  \
         \"pipeline\": \"black_scholes\",\n  \"n\": {n},\n  \"workers\": {WORKERS},\n"
    ));
    json.push_str("  \"modes\": {\n");
    for (i, m) in modes.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{ \"requests\": {}, \"wall_seconds\": {:.6}, \
             \"requests_per_second\": {:.2}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4} }}{}\n",
            m.name,
            m.requests(),
            m.wall.as_secs_f64(),
            m.rps(),
            m.percentile(0.50).as_secs_f64() * 1e3,
            m.percentile(0.99).as_secs_f64() * 1e3,
            if i + 1 < modes.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"plan_cache\": {{ \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}, \
         \"entries\": {} }},\n",
        cache.hits, cache.misses, hit_rate, cache.entries
    ));
    json.push_str("  \"fair_share\": {\n");
    json.push_str(&format!(
        "    \"drr\": {{ \"hot1_batches\": {}, \"hot2_batches\": {}, \
         \"cold_batches\": {}, \"hot1_worker_batches\": {}, \
         \"hot2_worker_batches\": {}, \"cold_worker_batches\": {}, \
         \"cold_share\": {:.4}, \"cold_wall_seconds\": {:.6}, \
         \"checksums_ok\": {} }}\n",
        fair.batch_deltas[0],
        fair.batch_deltas[1],
        fair.batch_deltas[2],
        fair.worker_deltas[0],
        fair.worker_deltas[1],
        fair.worker_deltas[2],
        fair.cold_share(),
        fair.cold_wall.as_secs_f64(),
        fair.checksums_ok
    ));
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"coalescing\": {{ \"requests\": {}, \"coalesced_requests\": {}, \
         \"checksums_ok\": {} }},\n",
        co.requests, co.coalesced, co.checksums_ok
    ));
    json.push_str(&format!(
        "  \"coalescing_image\": {{ \"pipeline\": \"nashville\", \"width\": {img_w}, \
         \"height\": {img_h}, \"requests\": {}, \"coalesced_requests\": {}, \
         \"checksums_ok\": {} }},\n",
        co_img.requests, co_img.coalesced, co_img.checksums_ok
    ));
    json.push_str(&format!(
        "  \"fault_recovery\": {{ \"requests\": {}, \"injected_faults\": {}, \
         \"retries\": {}, \"clean_wall_seconds\": {:.6}, \"faulty_wall_seconds\": {:.6}, \
         \"overhead_ratio\": {fr_ratio:.4}, \"ratio_asserted\": {fr_ratio_asserted}, \
         \"checksums_ok\": {} }},\n",
        fr.requests,
        fr.injected,
        fr.retries,
        fr.clean_wall.as_secs_f64(),
        fr.faulty_wall.as_secs_f64(),
        fr.checksums_ok
    ));
    json.push_str(&format!(
        "  \"tracing_overhead\": {{ \"off_wall_seconds\": {:.6}, \
         \"on_wall_seconds\": {:.6}, \"overhead_ratio\": {to_ratio:.4}, \
         \"ratio_asserted\": {to_ratio_asserted}, \"checksums_ok\": {} }},\n",
        to.off_wall.as_secs_f64(),
        to.on_wall.as_secs_f64(),
        to.checksums_ok
    ));
    json.push_str("  \"latency_histograms\": {\n");
    for (i, (name, h)) in hists.iter().enumerate() {
        json.push_str(&format!(
            "    \"{name}\": {}{}\n",
            hist_json(h),
            if i + 1 < hists.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"overload\": {{ \"peak_rps\": {peak_rps:.2}, \"offered_rps\": {offered_rps:.2}, \
         \"paced_threads\": {overload_threads},\n"
    ));
    for (o, comma) in [(&over_adaptive, ","), (&over_static, ",")] {
        json.push_str(&format!(
            "    \"{}\": {{ \"offered\": {}, \"admitted\": {}, \"shed\": {}, \
             \"wall_seconds\": {:.6}, \"goodput_rps\": {:.2}, \"admission_limit\": {}, \
             \"queue_shed\": {}, \"checksums_ok\": {} }}{}\n",
            o.name,
            o.offered,
            o.admitted,
            o.shed,
            o.wall.as_secs_f64(),
            o.goodput(),
            o.admission_limit,
            o.queue_shed,
            o.checksums_ok,
            comma
        ));
    }
    json.push_str(&format!(
        "    \"goodput_fraction_of_peak\": {goodput_frac:.4}, \
         \"ratio_asserted\": {overload_asserted} }},\n"
    ));
    json.push_str(&format!(
        "  \"breaker\": {{ \"fastfail_p50_us\": {:.2}, \"eval_p50_us\": {:.2}, \
         \"eval_over_fastfail_ratio\": {br_ratio:.1}, \"fastfail_shed\": {}, \
         \"recovered_in_one_probe\": {} }},\n",
        br.fastfail_p50.as_secs_f64() * 1e6,
        br.eval_p50.as_secs_f64() * 1e6,
        br.breaker_shed,
        br.recovered_in_one_probe
    ));
    json.push_str(&format!(
        "  \"acceptance\": {{ \"service_beats_independent\": {service_wins}, \
         \"hit_rate_gt_90\": {hit_rate_ok}, \"cold_entitled_share\": {entitled:.4}, \
         \"cold_within_2x_of_entitled_share\": {cold_within_2x}, \
         \"coalesced_nonzero\": {}, \"image_coalesced_nonzero\": {}, \
         \"fault_recovery_within_1_3x\": {}, \"tracing_overhead_within_1_05x\": {}, \
         \"overload_goodput_ge_70pct_peak\": {}, \
         \"overload_sheds_typed\": true, \
         \"breaker_fastfail_5x_under_eval\": {}, \
         \"breaker_one_probe_recovery\": {} }}\n}}\n",
        co.coalesced > 0,
        co_img.coalesced > 0,
        !fr_ratio_asserted || fr_ratio <= 1.3,
        !to_ratio_asserted || to.on_wall.as_secs_f64() <= to.off_wall.as_secs_f64() * 1.05 + 0.05,
        !overload_asserted || goodput_ok,
        br_ratio >= 5.0,
        br.recovered_in_one_probe
    ));
    write_results("BENCH_serve.json", &json);
    println!("wrote bench_results/BENCH_serve.json");
}
