//! The service's counters: one snapshot type ([`ServiceStats`]) and one
//! table ([`STAT_TABLE`]) that names every counter on both wire
//! surfaces — the `STATS` protocol line and the Prometheus-style
//! metrics page. `tcpfront::stats_body` and
//! `PipelineService::metrics_text` only iterate the table, so adding a
//! counter is two steps: a field here (or on
//! [`PhaseStats`] for an engine counter, which
//! arrives through [`ServiceStats::engine`]) and a row below.

use mozart_core::{PhaseStats, PlanCacheStats, PoolStats};

use StatKind::{Counter, Flag, Gauge};

/// Cumulative service counters (see `PipelineService::stats`).
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Requests admitted and started (followers served through a
    /// coalesced evaluation included).
    pub started: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests that failed inside the pipeline.
    pub failed: u64,
    /// Requests shed because their deadline passed — while queued for
    /// admission, while parked in a coalesced batch, or mid-evaluation
    /// (cooperative cancellation at batch-claim boundaries).
    pub deadline_shed: u64,
    /// Evaluation attempts re-run after a transient failure (see
    /// `ServiceConfig::max_retries`).
    pub retries: u64,
    /// Requests (on a tracing-enabled service) that consumed at least
    /// 80% of their deadline before resolving — the slow-request log's
    /// counter (`PipelineService::slow_requests`). Always 0 when
    /// tracing is off or requests carry no deadline.
    pub slow: u64,
    /// Requests served by piggybacking on another request's evaluation
    /// (cross-request coalescing followers; the leader of a coalesced
    /// batch is not counted).
    pub coalesced_requests: u64,
    /// Requests fast-failed by an open circuit breaker
    /// (`ServeError::CircuitOpen`).
    pub breaker_shed: u64,
    /// The engine's own counters: every evaluation attempt's
    /// [`PhaseStats`] (failed attempts included), accumulated when the
    /// request that ran them settles. Deferred outputs and reused merge
    /// targets are read from here.
    pub engine: PhaseStats,
    /// Whether `PipelineService::drain` has been called: admission is
    /// closed and every new request is shed with
    /// `ServeError::Draining`.
    pub draining: bool,
    /// Followers currently parked in open (not yet sealed) coalesced
    /// batches, waiting for their leader's evaluation.
    pub coalesce_waiting: usize,
    /// Sessions opened.
    pub sessions: u64,
    /// Requests currently evaluating.
    pub inflight: usize,
    /// Callers currently waiting for admission.
    pub waiting: usize,
    /// Shared plan cache counters (`parked_bytes`: released merge
    /// targets currently held for reuse).
    pub plan_cache: PlanCacheStats,
    /// Shared worker pool counters (jobs, batches, parks).
    pub pool: PoolStats,
    /// The concurrency limit: the configured `max_inflight` (`workers`
    /// unless set), fixed for the service's lifetime.
    pub admission_limit: usize,
    /// Retired: always 0. A queued caller leaves only when admitted, at
    /// its deadline or on drain; no waiter is shed. Kept for the
    /// `STATS` wire position and the benchmark's reader.
    pub queue_shed: u64,
    /// Pipelines whose breaker is currently open (half-open counts as
    /// not open: it is accepting a probe).
    pub breaker_open: usize,
    /// Live process-wide metered buffer bytes
    /// (`mozart_core::membudget`).
    pub memory_live_bytes: u64,
}

/// How a [`StatRow`] renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatKind {
    /// Monotone: `# TYPE … counter`.
    Counter,
    /// May go down: `# TYPE … gauge`.
    Gauge,
    /// A boolean: a 0/1 gauge on the page, `true`/`false` on `STATS`.
    Flag,
}

/// One counter of [`ServiceStats`] and where it shows.
pub struct StatRow {
    /// Position and key on the `STATS` line (`None`: not on it).
    /// Clients read the line positionally, so a position is never
    /// reused or renumbered: a new row takes the next free one.
    pub stats: Option<(u8, &'static str)>,
    /// Name on the metrics page (`None`: not on it). The page lists
    /// rows in table order.
    pub metric: Option<&'static str>,
    /// Counter, gauge or flag.
    pub kind: StatKind,
    /// The page's `# HELP` text.
    pub help: &'static str,
    /// Reads the value out of a snapshot.
    pub get: fn(&ServiceStats) -> u64,
}

impl StatRow {
    /// The value as the `STATS` line prints it.
    pub fn stats_value(&self, s: &ServiceStats) -> String {
        match (self.kind, (self.get)(s)) {
            (Flag, v) => (v != 0).to_string(),
            (_, v) => v.to_string(),
        }
    }
}

/// One [`STAT_TABLE`] row, in the argument order the table is laid out in.
const fn row(
    stats: Option<(u8, &'static str)>,
    kind: StatKind,
    get: fn(&ServiceStats) -> u64,
    metric: Option<&'static str>,
    help: &'static str,
) -> StatRow {
    StatRow {
        stats,
        metric,
        kind,
        help,
        get,
    }
}

/// Every scalar the service exposes, in metrics-page order. A row is
/// three lines: `STATS` position and key, kind, value; the page metric;
/// the page's `# HELP` text.
#[rustfmt::skip] // keeps a row to those three lines
pub static STAT_TABLE: [StatRow; 35] = [
    row(Some((0, "started")), Counter, |s| s.started,
        Some("mozart_requests_started_total"),
        "Requests admitted and started (coalesced followers included)"),
    row(Some((1, "completed")), Counter, |s| s.completed,
        Some("mozart_requests_completed_total"),
        "Requests completed successfully"),
    row(Some((2, "rejected")), Counter, |s| s.rejected,
        Some("mozart_requests_rejected_total"),
        "Requests rejected by admission control"),
    row(Some((3, "failed")), Counter, |s| s.failed,
        Some("mozart_requests_failed_total"),
        "Requests failed inside the pipeline"),
    row(Some((4, "over_budget")), Counter, |_| 0,
        Some("mozart_requests_over_budget_total"),
        "Retired, always 0: sessions meter their bytes but carry no budget"),
    row(Some((5, "deadline_shed")), Counter, |s| s.deadline_shed,
        Some("mozart_requests_deadline_shed_total"),
        "Requests shed because their deadline passed"),
    row(Some((6, "retries")), Counter, |s| s.retries,
        Some("mozart_retries_total"),
        "Evaluation attempts re-run after a transient failure"),
    row(Some((9, "coalesced_requests")), Counter, |s| s.coalesced_requests,
        Some("mozart_requests_coalesced_total"),
        "Requests served by piggybacking on another evaluation"),
    row(Some((27, "split_form_handoffs")), Counter, |s| s.engine.split_form_handoffs,
        Some("mozart_split_form_handoffs_total"),
        "Retired, always 0: stage outputs are merged, never handed across as pieces"),
    row(Some((28, "deferred_outputs")), Counter, |s| s.engine.lineage_outputs,
        Some("mozart_deferred_outputs_total"),
        "Live but undemanded outputs held as lineage instead of merged"),
    row(Some((29, "deferred_materialized")), Counter, |s| s.engine.lineage_replays,
        Some("mozart_deferred_materialized_total"),
        "Outputs held as lineage, made whole on demand by a later read or in-place stage"),
    row(Some((30, "merge_targets_reused")), Counter, |s| s.engine.merge_targets_reused,
        Some("mozart_merge_targets_reused_total"),
        "Placement-merge targets written over a released one instead of allocated"),
    row(Some((31, "merge_targets_allocated")), Counter, |s| s.engine.merge_targets_allocated,
        Some("mozart_merge_targets_allocated_total"),
        "Placement-merge targets freshly allocated"),
    row(Some((32, "recomputed_values")), Counter, |s| s.engine.recomputed_values,
        Some("mozart_recomputed_values_total"),
        "Values recomputed whole from their lineage by a later read"),
    row(Some((7, "slow")), Counter, |s| s.slow,
        Some("mozart_requests_slow_total"),
        "Requests that consumed at least 80% of their deadline"),
    row(Some((12, "inflight")), Gauge, |s| s.inflight as u64,
        Some("mozart_inflight"),
        "Requests currently evaluating"),
    row(None, Gauge, |s| s.waiting as u64,
        Some("mozart_admission_waiting"),
        "Callers waiting for admission"),
    row(Some((10, "coalesce_waiting")), Gauge, |s| s.coalesce_waiting as u64,
        Some("mozart_coalesce_waiting"),
        "Followers parked in open coalesced batches"),
    row(Some((11, "sessions")), Gauge, |s| s.sessions,
        Some("mozart_sessions"),
        "Sessions opened"),
    row(Some((8, "draining")), Flag, |s| u64::from(s.draining),
        Some("mozart_draining"),
        "1 once drain() has been called"),
    row(Some((13, "plan_hits")), Counter, |s| s.plan_cache.hits,
        Some("mozart_plan_cache_hits_total"),
        "Evaluations whose pending-segment fingerprint already had a plan-cache entry"),
    row(Some((14, "plan_misses")), Counter, |s| s.plan_cache.misses,
        Some("mozart_plan_cache_misses_total"),
        "Evaluations whose fingerprint had no entry yet, and inserted one"),
    row(Some((15, "plan_entries")), Gauge, |s| s.plan_cache.entries as u64,
        Some("mozart_plan_cache_entries"),
        "Fingerprints with a plan-cache entry (their parked merge targets)"),
    row(None, Gauge, |s| s.plan_cache.parked_bytes,
        Some("mozart_merge_targets_parked_bytes"),
        "Released merge targets parked in the plan cache for reuse (split info bytes)"),
    row(Some((16, "pool_workers")), Gauge, |s| s.pool.workers as u64,
        Some("mozart_pool_workers"),
        "Worker threads in the shared pool"),
    row(Some((17, "pool_jobs")), Counter, |s| s.pool.jobs,
        Some("mozart_pool_jobs_total"),
        "Stages dispatched to the shared pool"),
    row(Some((18, "pool_panicked_batches")), Counter, |s| s.pool.panicked_batches,
        Some("mozart_pool_panicked_batches_total"),
        "Batch runs that ended in a caught panic"),
    row(Some((19, "pool_respawned_workers")), Counter, |s| s.pool.respawned_workers,
        Some("mozart_pool_respawned_workers_total"),
        "Pool workers respawned after dying"),
    row(Some((20, "admission_limit")), Gauge, |s| s.admission_limit as u64,
        Some("mozart_admission_limit"),
        "Current concurrency limit"),
    row(Some((21, "queue_shed")), Counter, |s| s.queue_shed,
        Some("mozart_queue_shed_total"),
        "Retired, always 0: queued callers leave only when admitted, at their deadline or on drain"),
    row(Some((22, "over_memory")), Counter, |_| 0,
        Some("mozart_over_memory_total"),
        "Retired, always 0: no process memory ceiling sheds requests"),
    row(Some((23, "breaker_shed")), Counter, |s| s.breaker_shed,
        Some("mozart_breaker_fastfail_total"),
        "Requests fast-failed by an open circuit breaker"),
    // On the page the breakers are a labeled family per pipeline
    // (`mozart_breaker_state`); the line carries only the open count.
    row(Some((24, "breaker_open")), Gauge, |s| s.breaker_open as u64,
        None,
        "Pipelines whose circuit breaker is open"),
    row(Some((25, "memory_live_bytes")), Gauge, |s| s.memory_live_bytes,
        Some("mozart_memory_live_bytes"),
        "Live metered buffer bytes (process-wide)"),
    row(Some((26, "memory_ceiling_bytes")), Gauge, |_| 0,
        Some("mozart_memory_ceiling_bytes"),
        "Retired, always 0: the process has no memory ceiling"),
];

/// The rows that appear on the `STATS` line, in line order, each with
/// its key.
pub fn stats_line_rows() -> Vec<(&'static str, &'static StatRow)> {
    let mut rows: Vec<_> = STAT_TABLE
        .iter()
        .filter_map(|row| Some((row.stats?, row)))
        .collect();
    rows.sort_by_key(|((pos, _), _)| *pos);
    rows.into_iter().map(|((_, key), row)| (key, row)).collect()
}
