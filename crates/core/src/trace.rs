//! Per-request tracing: process-unique trace ids, lock-free per-worker
//! span ring buffers, span-tree assembly, and a Chrome trace-event
//! exporter.
//!
//! The executor already times every phase it runs (split/task/merge per
//! batch on the worker thread, placement writes, the final merge on the
//! caller); this module gives those timings an identity. A
//! [`TraceRecorder`] hands out process-unique trace ids
//! ([`TraceRecorder::mint`]) and collects fixed-size [`SpanRecord`]s
//! into per-worker ring buffers:
//!
//! * **Lock-free, zero-allocation recording.** A writer claims a slot
//!   with one `fetch_add`, publishes the payload field-by-field through
//!   plain atomics, and stamps the slot with the span's global sequence
//!   number last (release ordering). Readers run the inverse seqlock
//!   protocol — stamp, payload, stamp again — and discard slots a
//!   concurrent writer touched. No mutex, no heap traffic, no waiting
//!   on the hot path.
//! * **Overwrite-oldest.** Rings are fixed-size; once full, each new
//!   span overwrites the oldest slot in its shard. A long evaluation
//!   keeps its most recent detail; [`TraceRecorder::dropped`] counts
//!   what aged out.
//! * **Sharding.** Pool participants record into the shard of their
//!   worker index, so concurrently executing workers do not contend on
//!   one ring head; service threads (recording queue waits and request
//!   envelopes under [`SERVICE_WORKER`]) are spread round-robin by
//!   thread.
//!
//! Spans are assembled on demand ([`assemble`]) into a [`SpanTree`]:
//! the request envelope at the root, serve-side waits and evaluation
//! attempts one level down, and executor phase spans nested under the
//! attempt whose time window contains them. [`chrome_trace_json`]
//! renders any span set as Chrome trace-event JSON (`chrome://tracing`
//! / Perfetto).
//!
//! Every span carries **both** a wall-clock and a CPU-clock duration
//! (`crate::cputime`): on an oversubscribed host the difference is
//! preemption, which aggregate wall numbers silently misattribute to
//! whichever phase has the most windows.
//!
//! Tracing is off unless a recorder is installed in
//! [`Config::tracing`](crate::Config::tracing); when off, the executor
//! and context pay one predictable `Option` branch per would-be span
//! and record nothing.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A process-unique trace identifier (nonzero; 0 means "untraced").
pub type TraceId = u64;

/// Worker-slot value for spans recorded by service threads rather than
/// pool participants (rendered as `svc`).
pub const SERVICE_WORKER: u32 = u32::MAX;

/// What one span measured. The `arg`/`link` fields of a
/// [`SpanRecord`] are interpreted per kind; see each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SpanKind {
    /// The whole request, admission to response (`arg`/`link` unused).
    /// Serve-side root span.
    Request = 0,
    /// Wait for an admission permit (`link` = deadline ms, 0 = none).
    QueueWait = 1,
    /// A coalesced follower parked on its leader's evaluation
    /// (`link` = the **leader's** trace id).
    CoalesceWait = 2,
    /// Jittered backoff sleep before a retry (`arg` = upcoming attempt
    /// number).
    Backoff = 3,
    /// One evaluation attempt (`arg` = attempt index from 0; `link` =
    /// cause of the *previous* attempt's failure, see [`RetryCause`]).
    Attempt = 4,
    /// The request was shed on its deadline (`link` = deadline ms).
    /// Zero-duration marker.
    DeadlineShed = 5,
    /// Clearing lazy-evaluation protection at evaluation start.
    Unprotect = 6,
    /// Planning (fingerprinting and stage planning), accumulated over
    /// the evaluation.
    Planner = 7,
    /// The evaluation's fingerprint already had a plan-cache entry
    /// (zero-duration marker).
    PlanCacheHit = 8,
    /// The evaluation's fingerprint had no entry yet (zero-duration
    /// marker).
    PlanCacheMiss = 9,
    /// Split phase of one batch (`arg` = stage index, `link` = batch
    /// index).
    Split = 10,
    /// Task (library-call) phase of one batch (`arg` = stage, `link` =
    /// batch).
    Task = 11,
    /// Worker-local merge window (`arg` = stage index).
    Merge = 12,
    /// Placement write of one batch's result pieces (`arg` = stage,
    /// `link` = batch).
    PlacementWrite = 13,
    /// Final merge of a stage on the calling thread (`arg` = stage).
    FinalMerge = 14,
}

/// Number of distinct [`SpanKind`]s (for per-kind aggregation arrays).
pub const SPAN_KINDS: usize = 15;

/// Failure cause codes carried in an [`SpanKind::Attempt`] span's
/// `link` field (the cause of the *previous* attempt's failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RetryCause {
    /// First attempt: nothing failed before it.
    None = 0,
    /// A caught panic in foreign split/task/merge code.
    Panic = 1,
    /// A deterministic fault-injection error.
    Injected = 2,
    /// Any other (transient) runtime error.
    Other = 3,
}

impl SpanKind {
    /// Stable lowercase name used in wire formats and exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::CoalesceWait => "coalesce_wait",
            SpanKind::Backoff => "backoff",
            SpanKind::Attempt => "attempt",
            SpanKind::DeadlineShed => "deadline_shed",
            SpanKind::Unprotect => "unprotect",
            SpanKind::Planner => "planner",
            SpanKind::PlanCacheHit => "plan_cache_hit",
            SpanKind::PlanCacheMiss => "plan_cache_miss",
            SpanKind::Split => "split",
            SpanKind::Task => "task",
            SpanKind::Merge => "merge",
            SpanKind::PlacementWrite => "placement_write",
            SpanKind::FinalMerge => "final_merge",
        }
    }

    fn from_u8(v: u8) -> Option<SpanKind> {
        Some(match v {
            0 => SpanKind::Request,
            1 => SpanKind::QueueWait,
            2 => SpanKind::CoalesceWait,
            3 => SpanKind::Backoff,
            4 => SpanKind::Attempt,
            5 => SpanKind::DeadlineShed,
            6 => SpanKind::Unprotect,
            7 => SpanKind::Planner,
            8 => SpanKind::PlanCacheHit,
            9 => SpanKind::PlanCacheMiss,
            10 => SpanKind::Split,
            11 => SpanKind::Task,
            12 => SpanKind::Merge,
            13 => SpanKind::PlacementWrite,
            14 => SpanKind::FinalMerge,
            _ => return None,
        })
    }

    /// Serve-level kinds sit directly under the request root in an
    /// assembled tree; executor kinds nest under the covering attempt.
    fn is_serve_level(self) -> bool {
        matches!(
            self,
            SpanKind::QueueWait
                | SpanKind::CoalesceWait
                | SpanKind::Backoff
                | SpanKind::Attempt
                | SpanKind::DeadlineShed
        )
    }
}

/// One recorded span: a fixed-size value, copied whole in and out of
/// the ring buffers (no allocation on the hot path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Global sequence number, assigned by the recorder (1-based;
    /// monotone across all threads, so "older" is well-defined).
    pub seq: u64,
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// What was measured.
    pub kind: SpanKind,
    /// Recording participant: the pool worker index, or
    /// [`SERVICE_WORKER`] for service threads.
    pub worker: u32,
    /// Kind-specific argument (stage index, attempt number, ...); see
    /// [`SpanKind`].
    pub arg: u64,
    /// Kind-specific link (batch index, leader trace id, retry cause,
    /// deadline ms, ...); see [`SpanKind`].
    pub link: u64,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub wall_ns: u64,
    /// CPU-clock duration in nanoseconds (see `crate::cputime`); equals
    /// wall minus preemption for single-threaded windows.
    pub cpu_ns: u64,
}

impl SpanRecord {
    /// End of the span's wall window, saturating.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.wall_ns)
    }
}

/// One seqlock-protected ring slot. `stamp` is 0 while empty or mid-
/// write and the span's sequence number once published.
struct Slot {
    stamp: AtomicU64,
    trace: AtomicU64,
    /// `kind | worker << 8` packed.
    meta: AtomicU64,
    arg: AtomicU64,
    link: AtomicU64,
    start_ns: AtomicU64,
    wall_ns: AtomicU64,
    cpu_ns: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            stamp: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            arg: AtomicU64::new(0),
            link: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
            cpu_ns: AtomicU64::new(0),
        }
    }

    /// Seqlock read: `None` if the slot is empty or a writer raced us.
    fn read(&self) -> Option<SpanRecord> {
        let s1 = self.stamp.load(Ordering::Acquire);
        if s1 == 0 {
            return None;
        }
        let rec = SpanRecord {
            seq: s1,
            trace: self.trace.load(Ordering::Relaxed),
            kind: SpanKind::from_u8((self.meta.load(Ordering::Relaxed) & 0xff) as u8)?,
            worker: (self.meta.load(Ordering::Relaxed) >> 8) as u32,
            arg: self.arg.load(Ordering::Relaxed),
            link: self.link.load(Ordering::Relaxed),
            start_ns: self.start_ns.load(Ordering::Relaxed),
            wall_ns: self.wall_ns.load(Ordering::Relaxed),
            cpu_ns: self.cpu_ns.load(Ordering::Relaxed),
        };
        // A concurrent writer zeroes the stamp before touching the
        // payload, so an unchanged stamp proves the copy is whole.
        if self.stamp.load(Ordering::Acquire) == s1 {
            Some(rec)
        } else {
            None
        }
    }
}

/// One ring: a head cursor claimed with `fetch_add` plus its slots.
struct Shard {
    head: AtomicUsize,
    slots: Vec<Slot>,
}

/// Per-kind wall/CPU totals, aggregated at record time so exposition
/// layers can report phase time without scanning rings.
struct KindTotal {
    count: AtomicU64,
    wall_ns: AtomicU64,
    cpu_ns: AtomicU64,
}

/// Aggregate per-kind phase totals (see
/// [`TraceRecorder::phase_totals`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTotal {
    /// The span kind these totals aggregate.
    pub kind: SpanKind,
    /// Spans recorded with this kind (overwritten spans included — the
    /// totals are accumulated at record time).
    pub count: u64,
    /// Total wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Total CPU-clock nanoseconds.
    pub cpu_ns: u64,
}

/// The span sink: mints trace ids, stamps a global sequence, and stores
/// spans in per-worker overwrite-oldest rings. Cheap to share
/// (`Arc<TraceRecorder>`); see the module docs for the concurrency
/// protocol.
pub struct TraceRecorder {
    epoch: Instant,
    seq: AtomicU64,
    next_trace: AtomicU64,
    shards: Vec<Shard>,
    totals: Vec<KindTotal>,
    next_thread_shard: AtomicUsize,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TraceRecorder({} shards x {} slots)",
            self.shards.len(),
            self.shards.first().map_or(0, |s| s.slots.len())
        )
    }
}

/// Default shard count (worker indices fold onto these).
const DEFAULT_SHARDS: usize = 8;
/// Default slots per shard.
const DEFAULT_SLOTS: usize = 2048;

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_SHARDS, DEFAULT_SLOTS)
    }
}

impl TraceRecorder {
    /// A recorder with the default capacity (8 rings of 2048 spans).
    pub fn new() -> Arc<TraceRecorder> {
        Arc::new(TraceRecorder::default())
    }

    /// A recorder with `shards` rings of `slots` spans each (both
    /// clamped to at least 1).
    pub fn with_capacity(shards: usize, slots: usize) -> TraceRecorder {
        let shards = shards.max(1);
        let slots = slots.max(1);
        TraceRecorder {
            epoch: Instant::now(),
            seq: AtomicU64::new(1),
            next_trace: AtomicU64::new(1),
            shards: (0..shards)
                .map(|_| Shard {
                    head: AtomicUsize::new(0),
                    slots: (0..slots).map(|_| Slot::empty()).collect(),
                })
                .collect(),
            totals: (0..SPAN_KINDS)
                .map(|_| KindTotal {
                    count: AtomicU64::new(0),
                    wall_ns: AtomicU64::new(0),
                    cpu_ns: AtomicU64::new(0),
                })
                .collect(),
            next_thread_shard: AtomicUsize::new(0),
        }
    }

    /// Mint a process-unique nonzero trace id.
    pub fn mint(&self) -> TraceId {
        self.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds since this recorder's epoch (the `start_ns` clock).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Shard for a recording thread: pool workers map by index, service
    /// threads round-robin by thread identity.
    fn shard_for(&self, worker: u32) -> &Shard {
        let idx = if worker == SERVICE_WORKER {
            thread_local! {
                static SHARD: std::cell::OnceCell<usize> =
                    const { std::cell::OnceCell::new() };
            }
            SHARD
                .with(|c| *c.get_or_init(|| self.next_thread_shard.fetch_add(1, Ordering::Relaxed)))
        } else {
            worker as usize
        };
        &self.shards[idx % self.shards.len()]
    }

    /// Record one span (the `seq` field is assigned here; pass 0).
    /// Lock-free and allocation-free; overwrites the oldest span in the
    /// recording thread's shard when the ring is full.
    pub fn record(&self, rec: SpanRecord) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let total = &self.totals[rec.kind as usize];
        total.count.fetch_add(1, Ordering::Relaxed);
        total.wall_ns.fetch_add(rec.wall_ns, Ordering::Relaxed);
        total.cpu_ns.fetch_add(rec.cpu_ns, Ordering::Relaxed);
        let shard = self.shard_for(rec.worker);
        let idx = shard.head.fetch_add(1, Ordering::Relaxed) % shard.slots.len();
        let slot = &shard.slots[idx];
        // Seqlock write: invalidate, publish payload, stamp last.
        slot.stamp.store(0, Ordering::Release);
        slot.trace.store(rec.trace, Ordering::Relaxed);
        slot.meta.store(
            (rec.kind as u64) | (u64::from(rec.worker) << 8),
            Ordering::Relaxed,
        );
        slot.arg.store(rec.arg, Ordering::Relaxed);
        slot.link.store(rec.link, Ordering::Relaxed);
        slot.start_ns.store(rec.start_ns, Ordering::Relaxed);
        slot.wall_ns.store(rec.wall_ns, Ordering::Relaxed);
        slot.cpu_ns.store(rec.cpu_ns, Ordering::Relaxed);
        slot.stamp.store(seq, Ordering::Release);
    }

    /// Spans recorded so far that have been overwritten by newer ones.
    pub fn dropped(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let head = s.head.load(Ordering::Relaxed);
                head.saturating_sub(s.slots.len()) as u64
            })
            .sum()
    }

    /// All retained spans of one trace, sorted by start time (sequence
    /// breaking ties).
    pub fn spans(&self, trace: TraceId) -> Vec<SpanRecord> {
        self.collect(|r| r.trace == trace)
    }

    /// Every retained span, across all traces, sorted by start time —
    /// the input for whole-run exports ([`chrome_trace_json`]).
    pub fn all_spans(&self) -> Vec<SpanRecord> {
        self.collect(|_| true)
    }

    /// Per-kind aggregate wall/CPU totals, accumulated at record time
    /// (so ring overwrites never lose them).
    pub fn phase_totals(&self) -> Vec<PhaseTotal> {
        self.totals
            .iter()
            .enumerate()
            .filter_map(|(i, t)| {
                let kind = SpanKind::from_u8(i as u8)?;
                Some(PhaseTotal {
                    kind,
                    count: t.count.load(Ordering::Relaxed),
                    wall_ns: t.wall_ns.load(Ordering::Relaxed),
                    cpu_ns: t.cpu_ns.load(Ordering::Relaxed),
                })
            })
            .collect()
    }

    fn collect(&self, keep: impl Fn(&SpanRecord) -> bool) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for slot in &shard.slots {
                if let Some(rec) = slot.read() {
                    if keep(&rec) {
                        out.push(rec);
                    }
                }
            }
        }
        out.sort_by_key(|r| (r.start_ns, r.seq));
        out
    }

    /// Assemble one trace's retained spans into a tree (see
    /// [`assemble`]); `None` if the trace has no retained spans.
    pub fn tree(&self, trace: TraceId) -> Option<SpanTree> {
        assemble(self.spans(trace))
    }
}

/// Execution-side trace context threaded from a
/// [`MozartContext`](crate::MozartContext) into stages: the recorder
/// plus the active trace id.
#[derive(Clone)]
pub struct TraceCtx {
    /// Where spans go.
    pub recorder: Arc<TraceRecorder>,
    /// The trace being recorded.
    pub trace: TraceId,
}

impl TraceCtx {
    /// Record one span of this trace (see [`TraceRecorder::record`]).
    /// The argument list mirrors the [`SpanRecord`] fields the caller
    /// doesn't own (`seq`, `trace`) — a struct here would just be the
    /// record again.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn emit(
        &self,
        kind: SpanKind,
        worker: u32,
        arg: u64,
        link: u64,
        start_ns: u64,
        wall_ns: u64,
        cpu_ns: u64,
    ) {
        self.recorder.record(SpanRecord {
            seq: 0,
            trace: self.trace,
            kind,
            worker,
            arg,
            link,
            start_ns,
            wall_ns,
            cpu_ns,
        });
    }
}

/// One node of an assembled span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span at this node.
    pub span: SpanRecord,
    /// Child spans, in start order.
    pub children: Vec<SpanNode>,
}

/// A request's spans assembled into a tree: the request envelope at the
/// root, serve-side waits and attempts below it, executor phases under
/// their covering attempt.
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// The root node ([`SpanKind::Request`], possibly synthesized for
    /// direct evaluations that never passed through a serving layer).
    pub root: SpanNode,
}

impl SpanTree {
    /// End-to-end wall nanoseconds (the root span's duration).
    pub fn e2e_ns(&self) -> u64 {
        self.root.span.wall_ns
    }

    /// Wall nanoseconds covered by the root's direct children — the
    /// request's phase attribution. For a served request the direct
    /// children (queue wait, coalesce wait, attempts, backoffs) are
    /// contiguous sections of its lifetime, so this sums to the
    /// end-to-end latency up to per-phase bookkeeping gaps.
    pub fn covered_ns(&self) -> u64 {
        self.root
            .children
            .iter()
            .map(|c| c.span.wall_ns)
            .fold(0u64, u64::saturating_add)
    }

    /// Total spans in the tree (root included).
    pub fn len(&self) -> usize {
        fn count(n: &SpanNode) -> usize {
            1 + n.children.iter().map(count).sum::<usize>()
        }
        count(&self.root)
    }

    /// Whether the tree holds only its root.
    pub fn is_empty(&self) -> bool {
        self.root.children.is_empty()
    }

    /// Render the tree as a single line (the wire format of the
    /// `TRACE` protocol command; see `mozart-serve`'s protocol docs).
    /// Tokens are space-separated; each span renders as
    /// `<depth>:<kind>:worker=<w>:arg=<a>:link=<l>:start_us=<u>:wall_us=<u>:cpu_us=<u>`.
    pub fn render_line(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "trace={} e2e_us={} covered_us={} spans={}",
            self.root.span.trace,
            self.e2e_ns() / 1_000,
            self.covered_ns() / 1_000,
            self.len()
        );
        fn emit(out: &mut String, node: &SpanNode, depth: usize) {
            use std::fmt::Write as _;
            let s = &node.span;
            let worker = if s.worker == SERVICE_WORKER {
                "svc".to_string()
            } else {
                s.worker.to_string()
            };
            let _ = write!(
                out,
                " {depth}:{}:worker={worker}:arg={}:link={}:start_us={}:wall_us={}:cpu_us={}",
                s.kind.name(),
                s.arg,
                s.link,
                s.start_ns / 1_000,
                s.wall_ns / 1_000,
                s.cpu_ns / 1_000,
            );
            for c in &node.children {
                emit(out, c, depth + 1);
            }
        }
        emit(&mut out, &self.root, 0);
        out
    }
}

/// Assemble spans (sorted by start) into a [`SpanTree`].
///
/// Structure: the [`SpanKind::Request`] span is the root (for direct
/// `evaluate` calls that never passed a serving layer, a synthetic
/// request span covering the observed window is created). Serve-level
/// spans (waits, attempts, backoffs, shed markers) become direct
/// children; executor spans nest under the [`SpanKind::Attempt`] whose
/// wall window contains their start — which is what parents phase work
/// to the correct attempt across retries — and fall back to the root
/// when no attempt covers them.
pub fn assemble(spans: Vec<SpanRecord>) -> Option<SpanTree> {
    if spans.is_empty() {
        return None;
    }
    let root_span = spans
        .iter()
        .find(|s| s.kind == SpanKind::Request)
        .copied()
        .unwrap_or_else(|| {
            let start = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
            let end = spans.iter().map(|s| s.end_ns()).max().unwrap_or(start);
            SpanRecord {
                seq: 0,
                trace: spans[0].trace,
                kind: SpanKind::Request,
                worker: SERVICE_WORKER,
                arg: 0,
                link: 0,
                start_ns: start,
                wall_ns: end - start,
                cpu_ns: 0,
            }
        });
    let mut root = SpanNode {
        span: root_span,
        children: Vec::new(),
    };
    // Serve-level children first, preserving start order.
    for s in &spans {
        if s.kind != SpanKind::Request && s.kind.is_serve_level() {
            root.children.push(SpanNode {
                span: *s,
                children: Vec::new(),
            });
        }
    }
    // Executor spans nest under the attempt whose window contains them.
    for s in &spans {
        if s.kind == SpanKind::Request || s.kind.is_serve_level() {
            continue;
        }
        let node = SpanNode {
            span: *s,
            children: Vec::new(),
        };
        let home = root.children.iter_mut().find(|c| {
            c.span.kind == SpanKind::Attempt
                && c.span.start_ns <= s.start_ns
                && s.start_ns < c.span.end_ns().max(c.span.start_ns + 1)
        });
        match home {
            Some(attempt) => attempt.children.push(node),
            None => root.children.push(node),
        }
    }
    Some(SpanTree { root })
}

/// Render spans as Chrome trace-event JSON (the `chrome://tracing` /
/// Perfetto "JSON Array Format"): one complete (`"ph":"X"`) event per
/// span, grouped by trace id as the process and worker as the thread,
/// with CPU time and the kind-specific fields under `args`.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let tid = if s.worker == SERVICE_WORKER {
            999
        } else {
            s.worker as i64
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"mozart\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\
             \"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"arg\":{},\"link\":{},\"cpu_us\":{}}}}}",
            s.kind.name(),
            s.trace,
            tid,
            s.start_ns / 1_000,
            s.start_ns % 1_000,
            s.wall_ns / 1_000,
            s.wall_ns % 1_000,
            s.arg,
            s.link,
            s.cpu_ns / 1_000,
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, kind: SpanKind, start: u64, wall: u64) -> SpanRecord {
        SpanRecord {
            seq: 0,
            trace,
            kind,
            worker: 0,
            arg: 0,
            link: 0,
            start_ns: start,
            wall_ns: wall,
            cpu_ns: wall,
        }
    }

    #[test]
    fn mint_is_unique_and_nonzero() {
        let r = TraceRecorder::new();
        let a = r.mint();
        let b = r.mint();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn record_and_collect_roundtrip() {
        let r = TraceRecorder::new();
        r.record(span(7, SpanKind::Split, 100, 50));
        r.record(span(7, SpanKind::Task, 150, 30));
        r.record(span(8, SpanKind::Task, 10, 5));
        let spans = r.spans(7);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, SpanKind::Split);
        assert_eq!(spans[1].kind, SpanKind::Task);
        assert!(spans[0].seq < spans[1].seq, "sequence is monotone");
        assert_eq!(r.all_spans().len(), 3);
    }

    #[test]
    fn wraparound_drops_oldest_not_newest() {
        // One shard of 4 slots; 10 spans recorded: the ring must retain
        // exactly the newest 4 and count 6 dropped.
        let r = TraceRecorder::with_capacity(1, 4);
        for i in 0..10u64 {
            r.record(span(1, SpanKind::Task, i * 100, 10));
        }
        let spans = r.spans(1);
        assert_eq!(spans.len(), 4);
        let starts: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
        assert_eq!(starts, vec![600, 700, 800, 900], "newest survive");
        assert_eq!(r.dropped(), 6);
    }

    #[test]
    fn phase_totals_survive_overwrites() {
        let r = TraceRecorder::with_capacity(1, 2);
        for _ in 0..8 {
            r.record(span(1, SpanKind::Split, 0, 100));
        }
        let totals = r.phase_totals();
        let split = totals
            .iter()
            .find(|t| t.kind == SpanKind::Split)
            .expect("split total");
        assert_eq!(split.count, 8);
        assert_eq!(split.wall_ns, 800);
    }

    #[test]
    fn assemble_parents_phases_to_their_attempt() {
        // Two attempts (a retry); each attempt has one task span inside
        // its window. Assembly must parent each task to its own attempt.
        let mut spans = vec![span(3, SpanKind::Request, 0, 1000)];
        spans.push({
            let mut s = span(3, SpanKind::Attempt, 10, 300);
            s.arg = 0;
            s
        });
        spans.push({
            let mut s = span(3, SpanKind::Attempt, 400, 500);
            s.arg = 1;
            s.link = RetryCause::Panic as u64;
            s
        });
        spans.push(span(3, SpanKind::Task, 50, 100));
        spans.push(span(3, SpanKind::Task, 450, 100));
        spans.sort_by_key(|s| s.start_ns);
        let tree = assemble(spans).expect("tree");
        assert_eq!(tree.root.span.kind, SpanKind::Request);
        let attempts: Vec<&SpanNode> = tree
            .root
            .children
            .iter()
            .filter(|c| c.span.kind == SpanKind::Attempt)
            .collect();
        assert_eq!(attempts.len(), 2);
        for a in &attempts {
            assert_eq!(a.children.len(), 1, "one task per attempt");
            assert_eq!(a.children[0].span.kind, SpanKind::Task);
        }
        assert_eq!(attempts[1].span.link, RetryCause::Panic as u64);
        // Covered time = the two attempts' walls.
        assert_eq!(tree.covered_ns(), 800);
        assert_eq!(tree.e2e_ns(), 1000);
    }

    #[test]
    fn assemble_synthesizes_root_for_direct_evaluations() {
        let spans = vec![
            span(9, SpanKind::Unprotect, 100, 10),
            span(9, SpanKind::Task, 200, 300),
        ];
        let tree = assemble(spans).expect("tree");
        assert_eq!(tree.root.span.kind, SpanKind::Request);
        assert_eq!(tree.root.span.start_ns, 100);
        assert_eq!(tree.root.span.wall_ns, 400);
        assert_eq!(tree.root.children.len(), 2);
    }

    #[test]
    fn render_line_is_single_line_and_stable() {
        let spans = vec![span(5, SpanKind::Request, 0, 2000), {
            let mut s = span(5, SpanKind::Attempt, 0, 2000);
            s.worker = SERVICE_WORKER;
            s
        }];
        let tree = assemble(spans).expect("tree");
        let line = tree.render_line();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("trace=5 e2e_us=2 covered_us=2 spans=2"));
        assert!(line.contains("0:request:"), "{line}");
        assert!(line.contains("1:attempt:worker=svc"), "{line}");
    }

    #[test]
    fn chrome_export_is_valid_json_shape() {
        let spans = vec![span(2, SpanKind::Split, 1500, 2500)];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"split\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":2.500"), "{json}");
    }

    #[test]
    fn concurrent_recording_is_lossless_within_capacity() {
        let r = Arc::new(TraceRecorder::with_capacity(8, 4096));
        let threads: Vec<_> = (0..4)
            .map(|w| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        let mut s = span(77, SpanKind::Task, i, 1);
                        s.worker = w;
                        r.record(s);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("join");
        }
        assert_eq!(r.spans(77).len(), 4000);
        assert_eq!(r.dropped(), 0);
    }
}
