//! End-to-end tests of the observability layer: trace trees covering
//! request latency, retry-attempt span parenting, coalesced followers
//! linking to their leader's trace, and the metrics page.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use mozart_core::trace::{RetryCause, SpanKind};
use mozart_core::{Config, FaultKind, FaultPhase, FaultPlan, FaultPoint, MozartContext};
use mozart_serve::{Pipeline, PipelineService, Request, Response};

fn traced_service(workers: usize) -> PipelineService {
    let mut cfg = Config::with_workers(workers);
    // Multi-batch stages even on hosts with big caches, so the
    // executor's per-batch spans actually appear.
    cfg.batch_override = Some(512);
    PipelineService::builder()
        .workers(workers)
        .session_config(cfg)
        .coalescing(false)
        .tracing(true)
        .builtin_pipelines()
        .build()
}

/// The ISSUE's acceptance bar: with tracing enabled, a request's span
/// tree must account for its end-to-end latency — the root's direct
/// children (queue wait + attempts) cover at least 95% of the
/// wall-clock span, because they are contiguous same-thread intervals.
#[test]
fn trace_tree_covers_end_to_end_latency_within_5_percent() {
    let service = traced_service(2);
    let session = service.session();
    let req = Request::new().with("n", 65536);
    let (resp, trace) = session.call_traced("black_scholes", &req);
    resp.unwrap();
    let trace = trace.expect("tracing is on: every call gets a trace id");

    let tree = service.trace_tree(trace).expect("spans were recorded");
    assert_eq!(tree.root.span.kind, SpanKind::Request);
    let e2e = tree.e2e_ns();
    let covered = tree.covered_ns();
    assert!(e2e > 0);
    assert!(
        covered >= e2e / 100 * 95,
        "covered {covered} ns of {e2e} ns ({}%)\n{}",
        covered * 100 / e2e.max(1),
        tree.render_line()
    );
    // Direct children are non-overlapping intervals inside the root, so
    // coverage can never meaningfully exceed the end-to-end time.
    assert!(covered <= e2e + e2e / 20, "covered {covered} > e2e {e2e}");

    // The attempt carries the executor's work: split/task spans from
    // worker threads landed in the same trace and under the attempt.
    let spans = service.trace_spans(trace);
    assert!(spans.iter().any(|s| s.kind == SpanKind::Task), "{spans:?}");
    assert!(spans.iter().any(|s| s.kind == SpanKind::Split), "{spans:?}");
    let attempt = tree
        .root
        .children
        .iter()
        .find(|n| n.span.kind == SpanKind::Attempt)
        .expect("one attempt under the root");
    assert!(
        attempt
            .children
            .iter()
            .any(|n| n.span.kind == SpanKind::Task),
        "executor spans nest under the attempt: {}",
        tree.render_line()
    );

    // The serve-side histograms saw the request.
    let metrics = service.metrics().unwrap();
    assert_eq!(metrics.e2e.count, 1);
    assert!(metrics.e2e.max >= covered);
    let task = metrics
        .phases
        .iter()
        .find(|(n, _)| *n == "task")
        .map(|(_, h)| h.clone())
        .unwrap();
    assert!(task.count >= 1, "task phase histogram fed per attempt");

    // And the metrics page exposes both counters and histograms.
    let page = service.metrics_text();
    assert!(page.contains("mozart_requests_started_total 1"), "{page}");
    assert!(page.contains("# TYPE mozart_request_seconds histogram"));
    assert!(page.contains("mozart_request_seconds_count 1"));
    assert!(page.contains("mozart_span_task_total"));
}

/// An untraced service mints no ids, returns no trees, serves a
/// counters-only metrics page, and replies what a traced one replies.
#[test]
fn tracing_off_records_nothing() {
    let mut cfg = Config::with_workers(1);
    cfg.batch_override = Some(512);
    let service = PipelineService::builder()
        .workers(1)
        .session_config(cfg)
        .coalescing(false)
        .builtin_pipelines()
        .build();
    assert!(!service.tracing_enabled());
    let req = Request::new().with("n", 1024);
    let (resp, trace) = service.session().call_traced("black_scholes", &req);
    let traced = traced_service(1).session().call("black_scholes", &req);
    assert_eq!(
        resp.unwrap(),
        traced.unwrap(),
        "tracing must not perturb replies"
    );
    assert_eq!(trace, None);
    assert!(service.metrics().is_none());
    assert!(service.recorder().is_none());
    assert!(service.trace_tree(1).is_none());
    assert!(service.slow_requests().is_empty());
    let page = service.metrics_text();
    assert!(page.contains("mozart_requests_started_total 1"));
    assert!(!page.contains("mozart_request_seconds"));
}

/// Retry attempts parent their own executor spans, and the second
/// attempt's `link` carries the cause of the first one's failure.
#[test]
fn retry_attempts_parent_their_spans_and_carry_the_cause() {
    let mut cfg = Config::with_workers(1);
    cfg.batch_override = Some(512);
    cfg.fault_plan = Some(Arc::new(
        FaultPlan::new().point(FaultPoint::once(FaultPhase::Task, FaultKind::Error)),
    ));
    let service = PipelineService::builder()
        .workers(1)
        .session_config(cfg)
        .coalescing(false)
        .tracing(true)
        .max_retries(2)
        .retry_backoff_ms(1)
        .builtin_pipelines()
        .build();
    let (resp, trace) = service
        .session()
        .call_traced("black_scholes", &Request::new().with("n", 2048));
    resp.unwrap();
    let trace = trace.unwrap();

    let spans = service.trace_spans(trace);
    let mut attempts: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Attempt)
        .collect();
    attempts.sort_by_key(|s| s.arg);
    assert_eq!(attempts.len(), 2, "{spans:?}");
    assert_eq!(attempts[0].arg, 0);
    assert_eq!(attempts[0].link, RetryCause::None as u64);
    assert_eq!(attempts[1].arg, 1);
    assert_eq!(
        attempts[1].link,
        RetryCause::Injected as u64,
        "the retry records why the previous attempt failed"
    );
    assert!(
        spans.iter().any(|s| s.kind == SpanKind::Backoff),
        "a backoff span separates the attempts"
    );
    assert_eq!(service.stats().retries, 1);

    // In the assembled tree both attempts sit under the root, and the
    // successful second attempt contains the executor's task spans.
    let tree = service.trace_tree(trace).unwrap();
    let attempt_nodes: Vec<_> = tree
        .root
        .children
        .iter()
        .filter(|n| n.span.kind == SpanKind::Attempt)
        .collect();
    assert_eq!(attempt_nodes.len(), 2);
    let second = attempt_nodes.iter().find(|n| n.span.arg == 1).unwrap();
    assert!(
        second
            .children
            .iter()
            .any(|n| n.span.kind == SpanKind::Task),
        "{}",
        tree.render_line()
    );
}

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

/// A coalesced follower's trace contains a `CoalesceWait` span whose
/// `link` is the **leader's** trace id — the cross-trace edge that ties
/// a piggybacked request to the evaluation that actually served it.
#[test]
fn coalesced_follower_links_to_leader_trace() {
    let started = Arc::new(AtomicU64::new(0));
    let release = Arc::new(Barrier::new(2));
    let mut cfg = Config::with_workers(1);
    cfg.batch_override = Some(512);
    let service = PipelineService::builder()
        .workers(1)
        .max_inflight(1)
        .queue_depth(8)
        .session_config(cfg)
        .tracing(true)
        .builtin_pipelines()
        .pipeline(Arc::new(StallPipeline {
            started: started.clone(),
            release: release.clone(),
        }))
        .build();
    let req = Request::new().with("n", 2048).with("seed", 7u64);

    let (leader_trace, follower_trace) = std::thread::scope(|s| {
        // Occupy the single admission slot so the leader queues.
        let svc = service.clone();
        let occupant = s.spawn(move || {
            svc.session().call("stall", &Request::new()).unwrap();
        });
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let svc = service.clone();
        let ra = req.clone();
        let leader = s.spawn(move || svc.session().call_traced("black_scholes", &ra));
        while service.stats().waiting == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let svc = service.clone();
        let rb = req.clone();
        let follower = s.spawn(move || svc.session().call_traced("black_scholes", &rb));
        while service.stats().coalesce_waiting == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        release.wait();
        occupant.join().unwrap();
        let (resp_a, trace_a) = leader.join().unwrap();
        let (resp_b, trace_b) = follower.join().unwrap();
        assert_eq!(resp_a.unwrap(), resp_b.unwrap(), "identical requests");
        (trace_a.unwrap(), trace_b.unwrap())
    });
    assert_ne!(leader_trace, follower_trace);
    assert_eq!(service.stats().coalesced_requests, 1);

    let follower_spans = service.trace_spans(follower_trace);
    let wait = follower_spans
        .iter()
        .find(|sp| sp.kind == SpanKind::CoalesceWait)
        .expect("the follower waited on the leader's batch");
    assert_eq!(
        wait.link, leader_trace,
        "the CoalesceWait span links the leader's trace"
    );
    // The follower ran no evaluation of its own; the leader's trace
    // carries the attempt (and the executor's work).
    assert!(!follower_spans.iter().any(|sp| sp.kind == SpanKind::Attempt));
    let leader_spans = service.trace_spans(leader_trace);
    assert!(leader_spans.iter().any(|sp| sp.kind == SpanKind::Attempt));
    assert!(leader_spans.iter().any(|sp| sp.kind == SpanKind::QueueWait));
}

/// Requests that consume most of their deadline land in the
/// slow-request log with their trace id and outcome.
#[test]
fn slow_requests_are_logged_with_trace_ids() {
    struct SleepPipeline;
    impl Pipeline for SleepPipeline {
        fn name(&self) -> &'static str {
            "sleepy"
        }
        fn run(&self, _ctx: &MozartContext, _req: &Request) -> mozart_core::Result<Response> {
            std::thread::sleep(Duration::from_millis(40));
            Ok(Response::new("slept"))
        }
    }
    let service = PipelineService::builder()
        .workers(1)
        .tracing(true)
        .pipeline(Arc::new(SleepPipeline))
        .build();
    let session = service.session();
    // 40 ms of work against a 50 ms deadline: completes, but slow.
    let (resp, trace) = session.call_traced("sleepy", &Request::new().with_deadline_ms(50));
    resp.unwrap();
    let slow = service.slow_requests();
    assert_eq!(slow.len(), 1, "{slow:?}");
    assert_eq!(slow[0].trace, trace.unwrap());
    assert_eq!(slow[0].pipeline, "sleepy");
    assert_eq!(slow[0].deadline_ms, 50);
    assert_eq!(slow[0].outcome, "ok");
    assert_eq!(service.stats().slow, 1);
    // A fast request under a roomy deadline is not logged.
    session
        .call("sleepy", &Request::new().with_deadline_ms(10_000))
        .unwrap();
    assert_eq!(service.slow_requests().len(), 1);
}

/// The service of the second-read test: a traced pool of 2 running
/// `pipeline` in multi-batch stages. 128 batches a stage keep every
/// span of both stages inside one worker's trace ring, however the
/// batches fall between the workers.
fn second_read_service(pipeline: Arc<dyn Pipeline>) -> PipelineService {
    let mut cfg = Config::with_workers(2);
    cfg.batch_override = Some(2048);
    PipelineService::builder()
        .workers(2)
        .session_config(cfg)
        .tracing(true)
        .pipeline(pipeline)
        .build()
}

/// A pipeline over dataframe columns that reads a second handle: the
/// first read evaluates and leaves the outputs it did not ask for held
/// as lineage; the second read recomputes `shifted` and the `tp` it
/// reads in a stage of their own, on the pool, with a `Task` span per
/// batch and one `FinalMerge` span, in the request's trace; the
/// coverage bar holds, and the recomputed values reach `STATS` and
/// `METRICS`.
#[test]
fn lineage_replay_of_a_second_read_is_traced_and_counted() {
    struct TwoReads;
    impl Pipeline for TwoReads {
        fn name(&self) -> &'static str {
            "two_reads"
        }
        fn run(&self, ctx: &MozartContext, _req: &Request) -> mozart_core::Result<Response> {
            use sa_dataframe as sa;
            let df = workloads::crime_index::generate(1 << 18, 5);
            let tp = sa::col(ctx, &df, "total_population")?;
            let doubled = sa::mul_scalar(ctx, &tp, 2.0)?;
            let shifted = sa::add_scalar(ctx, &tp, 1.0)?;
            let first = sa::get_col(&doubled)?;
            let second = sa::get_col(&shifted)?;
            assert_eq!(ctx.stats().recomputed_values, 2, "tp, then shifted");
            Ok(Response::new(format!("{} {}", first.len(), second.len())))
        }
    }
    let service = second_read_service(Arc::new(TwoReads));
    let (resp, trace) = service.session().call_traced("two_reads", &Request::new());
    assert_eq!(resp.unwrap().body, format!("{0} {0}", 1 << 18));
    let trace = trace.expect("tracing is on");

    let tree = service.trace_tree(trace).expect("spans were recorded");
    let (e2e, covered) = (tree.e2e_ns(), tree.covered_ns());
    assert!(
        covered >= e2e / 100 * 95,
        "covered {covered} ns of {e2e} ns\n{}",
        tree.render_line()
    );
    let spans = service.trace_spans(trace);
    assert_eq!(service.recorder().expect("tracing is on").dropped(), 0);
    let count = |kind| spans.iter().filter(|s| s.kind == kind).count() as u64;
    let stats = service.stats();
    assert_eq!(
        count(SpanKind::FinalMerge),
        stats.engine.stages,
        "{}",
        tree.render_line()
    );
    assert_eq!(count(SpanKind::Task), stats.engine.batches);
    assert_eq!(
        (
            stats.engine.lineage_outputs,
            stats.engine.lineage_replays,
            stats.engine.recomputed_values
        ),
        (2, 1, 2)
    );
    let page = service.metrics_text();
    assert!(page.contains("mozart_recomputed_values_total 2"), "{page}");
    let line = mozart_serve::tcpfront::stats_body(&service);
    assert!(line.ends_with(" recomputed_values=2"), "{line}");
}

/// Merge-target reuse is visible on every surface: the second identical
/// image request writes its result over the first one's released
/// target, counted in `ServiceStats`, at the (appended) tail of `STATS`
/// and on the metrics page, with the parked bytes as a gauge.
#[test]
fn merge_target_reuse_is_counted_on_every_surface() {
    let service = traced_service(2);
    let session = service.session();
    let req = Request::new()
        .with("width", 96)
        .with("height", 64)
        .with("seed", 3u64);
    let first = session.call("nashville", &req).unwrap();
    let stats = service.stats();
    assert_eq!(
        (
            stats.engine.merge_targets_reused,
            stats.engine.merge_targets_allocated
        ),
        (0, 1)
    );
    assert!(stats.plan_cache.parked_bytes >= 96 * 64 * 3 * 4);
    assert_eq!(session.call("nashville", &req).unwrap(), first);
    let stats = service.stats();
    assert_eq!(
        (
            stats.engine.merge_targets_reused,
            stats.engine.merge_targets_allocated
        ),
        (1, 1)
    );

    let page = service.metrics_text();
    assert!(
        page.contains("mozart_merge_targets_reused_total 1"),
        "{page}"
    );
    assert!(
        page.contains("mozart_merge_targets_allocated_total 1"),
        "{page}"
    );
    let parked = format!(
        "mozart_merge_targets_parked_bytes {}",
        stats.plan_cache.parked_bytes
    );
    assert!(page.contains(&parked), "{page}");
    let line = mozart_serve::tcpfront::stats_body(&service);
    assert!(
        line.ends_with("merge_targets_reused=1 merge_targets_allocated=1 recomputed_values=0"),
        "{line}"
    );
}

/// `(metric name, # TYPE, # HELP text)` of every header pair on a
/// metrics page, in page order.
fn page_headers(page: &str) -> Vec<(String, String, String)> {
    let mut lines = page.lines();
    let mut out = Vec::new();
    while let Some(line) = lines.next() {
        let Some(rest) = line.strip_prefix("# HELP ") else {
            continue;
        };
        let (name, help) = rest.split_once(' ').unwrap();
        let ty = lines.next().unwrap();
        let ty = ty
            .strip_prefix(&format!("# TYPE {name} "))
            .unwrap_or_else(|| panic!("{name}: HELP not followed by its TYPE: {ty}"));
        out.push((name.to_string(), ty.to_string(), help.to_string()));
    }
    out
}

/// The wire contract, pinned as literals: every `STATS` key in reply
/// order, and every metric of a fresh tracing service's page with its
/// `# TYPE` and `# HELP`, in page order. Clients parse `STATS`
/// positionally and dashboards key on metric names, so neither may
/// move when the code that renders them is reorganized.
#[test]
fn stats_keys_and_metric_headers_are_pinned() {
    const STATS_KEYS: [&str; 33] = [
        "started",
        "completed",
        "rejected",
        "failed",
        "over_budget",
        "deadline_shed",
        "retries",
        "slow",
        "draining",
        "coalesced_requests",
        "coalesce_waiting",
        "sessions",
        "inflight",
        "plan_hits",
        "plan_misses",
        "plan_entries",
        "pool_workers",
        "pool_jobs",
        "pool_panicked_batches",
        "pool_respawned_workers",
        "admission_limit",
        "queue_shed",
        "over_memory",
        "breaker_shed",
        "breaker_open",
        "memory_live_bytes",
        "memory_ceiling_bytes",
        "split_form_handoffs",
        "deferred_outputs",
        "deferred_materialized",
        "merge_targets_reused",
        "merge_targets_allocated",
        "recomputed_values",
    ];
    #[rustfmt::skip]
    const METRICS: [(&str, &str, &str); 42] = [
        ("mozart_requests_started_total", "counter", "Requests admitted and started (coalesced followers included)"),
        ("mozart_requests_completed_total", "counter", "Requests completed successfully"),
        ("mozart_requests_rejected_total", "counter", "Requests rejected by admission control"),
        ("mozart_requests_failed_total", "counter", "Requests failed inside the pipeline"),
        ("mozart_requests_over_budget_total", "counter", "Retired, always 0: sessions meter their bytes but carry no budget"),
        ("mozart_requests_deadline_shed_total", "counter", "Requests shed because their deadline passed"),
        ("mozart_retries_total", "counter", "Evaluation attempts re-run after a transient failure"),
        ("mozart_requests_coalesced_total", "counter", "Requests served by piggybacking on another evaluation"),
        ("mozart_split_form_handoffs_total", "counter", "Retired, always 0: stage outputs are merged, never handed across as pieces"),
        ("mozart_deferred_outputs_total", "counter", "Live but undemanded outputs held as lineage instead of merged"),
        ("mozart_deferred_materialized_total", "counter", "Outputs held as lineage, made whole on demand by a later read or in-place stage"),
        ("mozart_merge_targets_reused_total", "counter", "Placement-merge targets written over a released one instead of allocated"),
        ("mozart_merge_targets_allocated_total", "counter", "Placement-merge targets freshly allocated"),
        ("mozart_recomputed_values_total", "counter", "Values recomputed whole from their lineage by a later read"),
        ("mozart_requests_slow_total", "counter", "Requests that consumed at least 80% of their deadline"),
        ("mozart_inflight", "gauge", "Requests currently evaluating"),
        ("mozart_admission_waiting", "gauge", "Callers waiting for admission"),
        ("mozart_coalesce_waiting", "gauge", "Followers parked in open coalesced batches"),
        ("mozart_sessions", "gauge", "Sessions opened"),
        ("mozart_draining", "gauge", "1 once drain() has been called"),
        ("mozart_plan_cache_hits_total", "counter", "Evaluations whose pending-segment fingerprint already had a plan-cache entry"),
        ("mozart_plan_cache_misses_total", "counter", "Evaluations whose fingerprint had no entry yet, and inserted one"),
        ("mozart_plan_cache_entries", "gauge", "Fingerprints with a plan-cache entry (their parked merge targets)"),
        ("mozart_merge_targets_parked_bytes", "gauge", "Released merge targets parked in the plan cache for reuse (split info bytes)"),
        ("mozart_pool_workers", "gauge", "Worker threads in the shared pool"),
        ("mozart_pool_jobs_total", "counter", "Stages dispatched to the shared pool"),
        ("mozart_pool_panicked_batches_total", "counter", "Batch runs that ended in a caught panic"),
        ("mozart_pool_respawned_workers_total", "counter", "Pool workers respawned after dying"),
        ("mozart_admission_limit", "gauge", "Current concurrency limit"),
        ("mozart_queue_shed_total", "counter", "Retired, always 0: queued callers leave only when admitted, at their deadline or on drain"),
        ("mozart_over_memory_total", "counter", "Retired, always 0: no process memory ceiling sheds requests"),
        ("mozart_breaker_fastfail_total", "counter", "Requests fast-failed by an open circuit breaker"),
        ("mozart_memory_live_bytes", "gauge", "Live metered buffer bytes (process-wide)"),
        ("mozart_memory_ceiling_bytes", "gauge", "Retired, always 0: the process has no memory ceiling"),
        ("mozart_request_seconds", "histogram", "End-to-end request latency"),
        ("mozart_admission_wait_seconds", "histogram", "Time waiting for an admission slot"),
        ("mozart_phase_unprotect_seconds", "histogram", "Per-attempt evaluation phase time"),
        ("mozart_phase_planner_seconds", "histogram", "Per-attempt evaluation phase time"),
        ("mozart_phase_split_seconds", "histogram", "Per-attempt evaluation phase time"),
        ("mozart_phase_task_seconds", "histogram", "Per-attempt evaluation phase time"),
        ("mozart_phase_merge_seconds", "histogram", "Per-attempt evaluation phase time"),
        ("mozart_trace_spans_dropped_total", "counter", "Span records overwritten before being read"),
    ];

    let service = PipelineService::builder().workers(1).tracing(true).build();
    let line = mozart_serve::tcpfront::stats_body(&service);
    let keys: Vec<&str> = line
        .split(' ')
        .map(|pair| pair.split_once('=').expect("key=value").0)
        .collect();
    assert_eq!(keys, STATS_KEYS, "{line}");
    assert!(line.contains(" draining=false "), "a flag, not 0/1: {line}");
    for retired in [
        "over_budget",
        "queue_shed",
        "over_memory",
        "memory_ceiling_bytes",
    ] {
        assert!(
            line.contains(&format!(" {retired}=0 ")),
            "{retired}: {line}"
        );
    }

    let got = page_headers(&service.metrics_text());
    let want: Vec<_> = METRICS
        .iter()
        .map(|(n, t, h)| (n.to_string(), t.to_string(), h.to_string()))
        .collect();
    assert_eq!(got, want);
}

/// The serve-side spans directly under a trace's `Request` root, as
/// `(kind, arg, link)` in start order.
fn serve_spans(service: &PipelineService, trace: u64) -> Vec<(SpanKind, u64, u64)> {
    let tree = service.trace_tree(trace).expect("spans were recorded");
    assert_eq!(tree.root.span.kind, SpanKind::Request);
    tree.root
        .children
        .iter()
        .map(|n| (n.span.kind, n.span.arg, n.span.link))
        .filter(|(kind, _, _)| {
            matches!(
                kind,
                SpanKind::QueueWait
                    | SpanKind::CoalesceWait
                    | SpanKind::Attempt
                    | SpanKind::Backoff
                    | SpanKind::DeadlineShed
            )
        })
        .collect()
}

/// One request, four ways through the service — solo (coalescing
/// off), `try_call`, leader of a batch nobody joined, follower of
/// somebody else's batch — is one lifecycle: the same body, `started`
/// and `completed` each up by one per request, and a `Request` root
/// over one wait span (`QueueWait` for whoever took the admission slot,
/// `CoalesceWait` linked to the leader for the follower) followed by
/// the one `Attempt` of whoever evaluated.
#[test]
fn every_role_runs_the_same_lifecycle() {
    let req = Request::new().with("n", 2048).with("seed", 7u64);
    let evaluated = vec![
        (SpanKind::QueueWait, 0, 0),
        (SpanKind::Attempt, 0, RetryCause::None as u64),
    ];
    let moved = |service: &PipelineService, before: &mozart_serve::ServiceStats| {
        let after = service.stats();
        assert_eq!(after.failed + after.rejected + after.deadline_shed, 0);
        (
            after.started - before.started,
            after.completed - before.completed,
        )
    };

    // Solo and try_call.
    let service = traced_service(1);
    let session = service.session();
    let before = service.stats();
    let (resp, trace) = session.call_traced("black_scholes", &req);
    let want = resp.unwrap();
    assert_eq!(serve_spans(&service, trace.unwrap()), evaluated, "solo");
    assert_eq!(moved(&service, &before), (1, 1), "solo");
    let before = service.stats();
    assert_eq!(session.try_call("black_scholes", &req).unwrap(), want);
    assert_eq!(moved(&service, &before), (1, 1), "try_call");
    // try_call hands back no trace id; its trace is the newest one.
    let newest = service
        .recorder()
        .unwrap()
        .all_spans()
        .iter()
        .map(|s| s.trace)
        .max()
        .unwrap();
    assert_eq!(serve_spans(&service, newest), evaluated, "try_call");

    // Leader of a batch nobody joined, then leader + follower.
    let started = Arc::new(AtomicU64::new(0));
    let release = Arc::new(Barrier::new(2));
    let mut cfg = Config::with_workers(1);
    cfg.batch_override = Some(512);
    let service = PipelineService::builder()
        .workers(1)
        .max_inflight(1)
        .queue_depth(8)
        .session_config(cfg)
        .tracing(true)
        .builtin_pipelines()
        .pipeline(Arc::new(StallPipeline {
            started: started.clone(),
            release: release.clone(),
        }))
        .build();
    let before = service.stats();
    let (resp, trace) = service.session().call_traced("black_scholes", &req);
    assert_eq!(resp.unwrap(), want);
    assert_eq!(serve_spans(&service, trace.unwrap()), evaluated, "leader");
    assert_eq!(moved(&service, &before), (1, 1), "lone leader");
    assert_eq!(service.stats().coalesced_requests, 0);

    let before = service.stats();
    let (leader_trace, follower_trace) = std::thread::scope(|s| {
        let svc = service.clone();
        let occupant = s.spawn(move || svc.session().call("stall", &Request::new()).unwrap());
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (svc, r) = (service.clone(), req.clone());
        let leader = s.spawn(move || svc.session().call_traced("black_scholes", &r));
        while service.stats().waiting == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (svc, r) = (service.clone(), req.clone());
        let follower = s.spawn(move || svc.session().call_traced("black_scholes", &r));
        while service.stats().coalesce_waiting == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        release.wait();
        occupant.join().unwrap();
        let (resp_a, trace_a) = leader.join().unwrap();
        let (resp_b, trace_b) = follower.join().unwrap();
        assert_eq!(resp_a.unwrap(), want);
        assert_eq!(resp_b.unwrap(), want);
        (trace_a.unwrap(), trace_b.unwrap())
    });
    assert_eq!(
        moved(&service, &before),
        (3, 3),
        "stall + leader + follower"
    );
    assert_eq!(service.stats().coalesced_requests, 1);
    assert_eq!(serve_spans(&service, leader_trace), evaluated, "leader");
    assert_eq!(
        serve_spans(&service, follower_trace),
        [(SpanKind::CoalesceWait, 1, leader_trace)],
        "the follower waits on its leader and evaluates nothing"
    );
}

/// Walk [`mozart_serve::STAT_TABLE`]: every row shows exactly once on
/// each surface it names — its key on the `STATS` line at the position
/// it declares, its metric on the page under the `# TYPE` of its kind —
/// and the positions are dense, so the line has no gaps or collisions.
#[test]
fn every_table_row_appears_once_on_each_surface_it_names() {
    use mozart_serve::{StatKind, STAT_TABLE};
    let service = PipelineService::builder().workers(1).build();
    let line = mozart_serve::tcpfront::stats_body(&service);
    let keys: Vec<&str> = line
        .split(' ')
        .map(|pair| pair.split_once('=').unwrap().0)
        .collect();
    let headers = page_headers(&service.metrics_text());
    let mut positions = Vec::new();
    for row in &STAT_TABLE {
        assert!(row.stats.is_some() || row.metric.is_some(), "{}", row.help);
        if let Some((pos, key)) = row.stats {
            assert_eq!(keys.iter().filter(|k| **k == key).count(), 1, "{key}");
            assert_eq!(keys[pos as usize], key);
            positions.push(pos);
        }
        if let Some(metric) = row.metric {
            let found: Vec<_> = headers.iter().filter(|h| h.0 == metric).collect();
            assert_eq!(found.len(), 1, "{metric}");
            let ty = match row.kind {
                StatKind::Counter => "counter",
                StatKind::Gauge | StatKind::Flag => "gauge",
            };
            assert_eq!((found[0].1.as_str(), found[0].2.as_str()), (ty, row.help));
            // Counters are named `_total`, nothing else is.
            assert_eq!(
                metric.ends_with("_total"),
                row.kind == StatKind::Counter,
                "{metric}"
            );
        }
    }
    positions.sort_unstable();
    assert_eq!(positions, (0..keys.len() as u8).collect::<Vec<_>>());
    // An untraced service with no breaker touched serves the table and
    // nothing else.
    assert_eq!(
        headers.len(),
        STAT_TABLE.iter().filter(|r| r.metric.is_some()).count()
    );
}
