//! # mozart-serve — concurrent pipeline serving for the Mozart runtime
//!
//! The paper's runtime (`libmozart`, §4–§5) optimizes one client's lazy
//! dataflow graph at a time; its Figure 5 shows client registration and
//! planning as real per-evaluation overheads. This crate grows the
//! runtime into a multi-tenant, in-process *service* that amortizes
//! both — the same observation Weld (CIDR 2017) makes from the JIT
//! side: a serving runtime must amortize its optimizer across repeated,
//! structurally identical pipelines.
//!
//! The mechanisms, all shared across every client of a
//! [`PipelineService`]:
//!
//! * **A shared worker pool** ([`mozart_core::PoolHandle`]): one
//!   machine-sized set of threads serves every session. Two concurrent
//!   clients no longer spawn two pools and oversubscribe the host;
//!   per-session usage is accounted in
//!   [`PoolStats::sessions`](mozart_core::PoolStats).
//! * **Deficit-weighted fair scheduling**: idle pool workers serve the
//!   open job of the most-underserved session per unit weight, not the
//!   oldest job, so one hot tenant cannot monopolize the pool.
//!   Sessions carry weights ([`Session::set_weight`], the
//!   builder's default, or the wire protocol's `WEIGHT` line);
//!   starvation is bounded by a deficit cap and by caller
//!   participation (see `mozart_core::pool`).
//! * **A plan cache** ([`mozart_core::PlanCache`]): evaluations
//!   fingerprint their pending call graph, and repeats of a fingerprint
//!   write their merged outputs over the placement targets an earlier
//!   request released instead of allocating them. Every evaluation
//!   still plans its own stages; shape or split-type changes change the
//!   fingerprint.
//! * **Cross-request coalescing**: queued blocking requests whose
//!   pending-segment fingerprints match ([`Pipeline::coalesce_key`])
//!   evaluate as *one* pipeline over concatenated inputs, and the
//!   per-element outputs are split back per request — the serving
//!   analogue of model-server micro-batching.
//!   [`ServiceStats::coalesced_requests`] counts the piggybacked
//!   requests.
//! * **Bounded admission**: at most `max_inflight` evaluations run (a
//!   fixed limit, `workers` by default), at most `queue_depth` callers
//!   wait (FIFO — released slots go to the oldest waiter; `try_call`
//!   never barges past the queue), and everyone else gets the typed
//!   [`ServeError::Saturated`] backpressure error immediately.
//! * **Session byte budgets**: the bytes split and merged per session
//!   (from the split info API's element sizes) are metered; sessions
//!   over their budget are shed with [`ServeError::OverBudget`] —
//!   load shedding by cost, not just by count.
//! * **Fault tolerance**: a panicking split/evaluate/merge fails only
//!   its request with the typed
//!   [`mozart_core::Error::TaskPanicked`] while the shared pool
//!   survives (a worker that dies anyway is respawned); transient
//!   failures retry with jittered backoff under the same admission
//!   permit ([`ServiceConfig::max_retries`]); requests carry deadlines
//!   ([`Request::with_deadline_ms`], [`Session::set_deadline`], the
//!   protocol's `DEADLINE_MS=`) enforced at every wait point and
//!   cooperatively mid-evaluation; and [`PipelineService::drain`]
//!   closes admission gracefully. Faults are injected deterministically
//!   for testing via [`mozart_core::FaultPlan`].
//! * **Overload resilience**: admission is the one fixed limit and
//!   bounded FIFO queue above, and a queued request leaves only when
//!   admitted, at its deadline or on drain; a process-wide memory
//!   ceiling (`mozart_core::membudget`) sheds
//!   requests whose estimated footprint cannot fit
//!   ([`ServeError::OverMemory`]) and stops coalesced batches from
//!   growing under pressure; and per-pipeline circuit breakers
//!   ([`breaker`]) fast-fail pipelines stuck in consecutive transient
//!   failures ([`ServeError::CircuitOpen`]) until a half-open probe
//!   succeeds.
//! * **Observability** ([`ServiceBuilder::tracing`]): per-request span
//!   trees (queue wait, coalesce wait, retry attempts with cause, and
//!   the executor's per-batch split/task/merge spans — see
//!   [`mozart_core::trace`]), log2-bucketed latency histograms with
//!   p50/p90/p99/p999 ([`metrics`]), a Prometheus-style text page
//!   ([`PipelineService::metrics_text`], the `METRICS` protocol line,
//!   `serve_tcp --metrics-port`), per-trace lookup (`TRACE <id>`), and
//!   a deadline-relative slow-request log. Off by default; when off the
//!   request path records nothing.
//!
//! ## Quickstart
//!
//! ```
//! use mozart_core::Config;
//! use mozart_serve::{PipelineService, Request};
//!
//! let service = PipelineService::builder()
//!     .workers(2)
//!     // With a 256 KiB L2 the work floor is 16 KiB: calls over more
//!     // are captured and planned, smaller ones run at registration.
//!     .session_config(Config {
//!         l2_bytes: 256 << 10,
//!         ..Config::default()
//!     })
//!     .builtin_pipelines() // black_scholes, haversine, nashville
//!     .build();
//! let session = service.session();
//! let resp = session
//!     .call("black_scholes", &Request::new().with("n", 2048))
//!     .unwrap();
//! assert!(resp.body.starts_with("call_sum="));
//! // The second, structurally identical request finds the first's entry.
//! session
//!     .call("black_scholes", &Request::new().with("n", 2048))
//!     .unwrap();
//! assert_eq!(service.stats().plan_cache.hits, 1);
//! ```
//!
//! A thin TCP front-end speaking a line-delimited protocol (see
//! [`protocol`]) lives in `examples/serve_tcp.rs`; the repository
//! benchmark (`benchmark/`) measures it end to end as its `serve.mix`
//! workload.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod admission;
pub mod breaker;
pub mod error;
pub mod metrics;
pub mod pipelines;
pub mod protocol;
mod service;
pub mod stats;
pub mod tcpfront;

pub use breaker::{BreakerConfig, BreakerState};
pub use error::{Result, ServeError};
pub use metrics::{Histogram, HistogramSnapshot};
pub use pipelines::builtin_pipelines;
pub use service::{
    run_segment, Pipeline, PipelineService, Request, Response, Segment, SegmentEval, SegmentInput,
    SegmentRespond, ServiceBuilder, ServiceConfig, ServiceMetrics, Session, SlowRequest,
    MAX_COALESCE, PHASE_NAMES,
};
pub use stats::{ServiceStats, StatKind, StatRow, STAT_TABLE};
