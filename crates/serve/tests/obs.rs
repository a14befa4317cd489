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

/// An untraced service mints no ids, returns no trees, and serves a
/// counters-only metrics page.
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
    let (resp, trace) = service
        .session()
        .call_traced("black_scholes", &Request::new().with("n", 1024));
    resp.unwrap();
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

/// A pipeline that reads a second handle: the first read evaluates and
/// leaves the other output as held pieces, the second read merges them
/// on demand. That merge is executor work like any other — its spans
/// land in the request's trace under the attempt, the coverage bar
/// holds, and the deferred counters reach `STATS` and `METRICS`.
#[test]
fn on_demand_merge_of_a_second_read_is_traced_and_counted() {
    struct TwoReads;
    impl Pipeline for TwoReads {
        fn name(&self) -> &'static str {
            "two_reads"
        }
        fn run(&self, ctx: &MozartContext, _req: &Request) -> mozart_core::Result<Response> {
            use sa_dataframe as sa;
            // Big enough that the request outweighs its bookkeeping gaps.
            let df = workloads::crime_index::generate(1 << 18, 5);
            let tp = sa::col(ctx, &df, "total_population")?;
            let doubled = sa::mul_scalar(ctx, &tp, 2.0)?;
            let shifted = sa::add_scalar(ctx, &tp, 1.0)?;
            let first = sa::get_col(&doubled)?;
            let merges_before = ctx.stats().deferred_materialized;
            let second = sa::get_col(&shifted)?;
            assert_eq!(ctx.stats().deferred_materialized, merges_before + 1);
            Ok(Response::new(format!("{} {}", first.len(), second.len())))
        }
    }
    let mut cfg = Config::with_workers(2);
    cfg.batch_override = Some(512);
    let service = PipelineService::builder()
        .workers(2)
        .session_config(cfg)
        .tracing(true)
        .pipeline(Arc::new(TwoReads))
        .build();
    let (resp, trace) = service.session().call_traced("two_reads", &Request::new());
    resp.unwrap();
    let trace = trace.expect("tracing is on");

    let tree = service.trace_tree(trace).expect("spans were recorded");
    let (e2e, covered) = (tree.e2e_ns(), tree.covered_ns());
    assert!(
        covered >= e2e / 100 * 95,
        "covered {covered} ns of {e2e} ns\n{}",
        tree.render_line()
    );
    // Two final-merge spans: the evaluation's one stage, then the
    // on-demand merge of `shifted` (addressed as the next stage index).
    let final_merges: Vec<u64> = service
        .trace_spans(trace)
        .iter()
        .filter(|s| s.kind == SpanKind::FinalMerge)
        .map(|s| s.arg)
        .collect();
    assert_eq!(final_merges, [0, 1], "{}", tree.render_line());

    // `tp` and `shifted` were alive but not asked for by the first
    // read; only `shifted` was read later.
    let stats = service.stats();
    assert_eq!(
        (stats.deferred_outputs, stats.deferred_materialized),
        (2, 1)
    );
    let page = service.metrics_text();
    assert!(page.contains("mozart_deferred_outputs_total 2"), "{page}");
    assert!(
        page.contains("mozart_deferred_materialized_total 1"),
        "{page}"
    );
    let line = mozart_serve::tcpfront::stats_body(&service);
    assert!(
        line.contains(" deferred_outputs=2 deferred_materialized=1 "),
        "{line}"
    );
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
        (stats.merge_targets_reused, stats.merge_targets_allocated),
        (0, 1)
    );
    assert!(stats.plan_cache.parked_bytes >= 96 * 64 * 3 * 4);
    assert_eq!(session.call("nashville", &req).unwrap(), first);
    let stats = service.stats();
    assert_eq!(
        (stats.merge_targets_reused, stats.merge_targets_allocated),
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
        line.ends_with("merge_targets_reused=1 merge_targets_allocated=1"),
        "{line}"
    );
}
