//! Per-phase timing statistics, used to regenerate Figure 5 (system
//! overhead breakdown) of the paper.

use std::time::Duration;

/// Cumulative wall-clock time spent in each runtime phase.
///
/// Matches the phases reported in the paper's Figure 5: client library
/// (task registration), unprotect (clearing lazy-evaluation protection),
/// planner, split, task execution, and merge. Worker-parallel phases
/// (split/task/merge) report the *maximum* across workers per stage,
/// summed over stages, so the total approximates elapsed time on
/// dedicated cores. Worker phase windows are measured on the
/// per-thread CPU clock, not the wall clock: on an oversubscribed or
/// virtualized host a wall window would be charged for every
/// preemption and every tick of hypervisor steal landing inside it,
/// which misattributes scheduler noise to whichever phase happens to
/// have the most windows (see `crate::cputime`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// Registering calls with the dataflow graph.
    pub client: Duration,
    /// Clearing protection flags at evaluation start.
    pub unprotect: Duration,
    /// Converting the dataflow graph into stages; for a call below the
    /// work floor, from its entry to its decision (its checks and the
    /// lookup of its kept decision).
    pub planner: Duration,
    /// Running split functions.
    pub split: Duration,
    /// Running the library functions themselves; for a call below the
    /// work floor, everything after its decision (its splits, the
    /// function and the merge of its return value).
    pub task: Duration,
    /// Running merge functions (worker-local and final).
    pub merge: Duration,
    /// Number of stages executed.
    pub stages: u64,
    /// Number of batches processed (summed over workers).
    pub batches: u64,
    /// Number of library function invocations (per piece), including
    /// the calls that ran at registration.
    pub calls: u64,
    /// Calls below the work floor that ran at registration, whole, on
    /// the caller — no graph node, plan or stage (see "Calls below the
    /// work floor" in [`crate::context`]). Their wall time is split
    /// between [`planner`](Self::planner) and [`task`](Self::task).
    pub inline_calls: u64,
    /// Result pieces written directly into a preallocated merge output
    /// by the placement fast path (see
    /// [`Placement::write_piece`](crate::split::Placement::write_piece)),
    /// instead of being collected and re-copied by a final merge.
    pub placement_writes: u64,
    /// Nominal bytes split across all stages: per stage,
    /// `total_elements · Σ elem_size_bytes` over the split inputs as
    /// reported by the split info API. The cost signal serving layers
    /// meter per-session byte budgets against.
    pub bytes_split: u64,
    /// Nominal bytes materialized by merge outputs (placement,
    /// collected, and on-demand merges of held pieces), via the split
    /// info API on the merged value.
    pub bytes_merged: u64,
    /// Retired: always 0. Stage outputs are never handed to the next
    /// stage as pieces; every value crossing a stage boundary is merged.
    /// Kept because readers of the serving layer's `STATS` line take it
    /// by position.
    pub split_form_handoffs: u64,
    /// Outputs whose `Future` was alive but which the triggering read did
    /// not ask for, left as held pieces or as lineage instead of merged
    /// (`OutputKind::Deferred` and `OutputKind::Lineage`; see
    /// "Demand-driven materialization" in [`crate::planner`]).
    pub deferred_outputs: u64,
    /// Held values made whole because something did ask — a later read
    /// of their `Future`, a pending call that reads them, an explicit
    /// `evaluate()`, or the flush before a stage that mutates storage in
    /// place: piece sets merged, and lineage replayed.
    pub deferred_materialized: u64,
    /// Values recomputed by lineage replays: each call of a replayed
    /// slice that ran again, whole (`OutputKind::Lineage`; see
    /// "Demand-driven materialization" in [`crate::planner`]).
    pub recomputed_values: u64,
    /// Stage plans statically verified before execution (see
    /// [`verify_stage`](crate::verify::verify_stage)). Every stage is
    /// verified, so this equals [`stages`](Self::stages) unless a
    /// verified stage then failed to execute.
    pub plans_verified: u64,
    /// Placement-merge targets that were a spare parked by an earlier
    /// evaluation of the same cached plan, written over instead of
    /// allocated (see
    /// [`Placement::reuse`](crate::split::Placement::reuse)).
    pub merge_targets_reused: u64,
    /// Placement-merge targets freshly allocated by
    /// [`Placement::alloc_merged`](crate::split::Placement::alloc_merged).
    pub merge_targets_allocated: u64,
}

impl PhaseStats {
    /// Total accounted time.
    pub fn total(&self) -> Duration {
        self.client + self.unprotect + self.planner + self.split + self.task + self.merge
    }

    /// Merge another stats block into this one.
    pub fn accumulate(&mut self, other: &PhaseStats) {
        self.client += other.client;
        self.unprotect += other.unprotect;
        self.planner += other.planner;
        self.split += other.split;
        self.task += other.task;
        self.merge += other.merge;
        self.stages += other.stages;
        self.batches += other.batches;
        self.calls += other.calls;
        self.inline_calls += other.inline_calls;
        self.placement_writes += other.placement_writes;
        self.bytes_split += other.bytes_split;
        self.bytes_merged += other.bytes_merged;
        self.split_form_handoffs += other.split_form_handoffs;
        self.deferred_outputs += other.deferred_outputs;
        self.deferred_materialized += other.deferred_materialized;
        self.recomputed_values += other.recomputed_values;
        self.plans_verified += other.plans_verified;
        self.merge_targets_reused += other.merge_targets_reused;
        self.merge_targets_allocated += other.merge_targets_allocated;
    }

    /// Fraction of the accounted total spent in the merge phase
    /// (0 when nothing was measured): the benchmark's
    /// `split.merge_share`.
    pub fn merge_fraction(&self) -> f64 {
        let t = self.total().as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            self.merge.as_secs_f64() / t
        }
    }

    /// Percentage breakdown `(client, unprotect, planner, split, task,
    /// merge)` of the accounted total, for Figure 5-style reporting.
    pub fn percentages(&self) -> [f64; 6] {
        let t = self.total().as_secs_f64();
        if t == 0.0 {
            return [0.0; 6];
        }
        [
            self.client.as_secs_f64() / t * 100.0,
            self.unprotect.as_secs_f64() / t * 100.0,
            self.planner.as_secs_f64() / t * 100.0,
            self.split.as_secs_f64() / t * 100.0,
            self.task.as_secs_f64() / t * 100.0,
            self.merge.as_secs_f64() / t * 100.0,
        ]
    }
}

/// Per-session usage of a shared worker pool (see
/// [`crate::pool::PoolHandle`]).
///
/// Sessions are identified by the submitting context's session tag
/// (`MozartContext::set_session_tag`; defaults to the context id).
/// Comparing `batches` across sessions shows how pool capacity was
/// divided between concurrent clients — the fairness signal the serving
/// layer watches. The pool tracks a bounded number of tags; evicted
/// sessions' totals aggregate under
/// [`crate::pool::OVERFLOW_SESSION`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionPoolStats {
    /// The submitting context's session tag.
    pub session: u64,
    /// Pool jobs (multi-worker stages) this session submitted.
    pub jobs: u64,
    /// Batches processed on behalf of this session, summed over all
    /// participants of its jobs.
    pub batches: u64,
    /// Of [`SessionPoolStats::batches`], the batches served by *pool
    /// workers* — the submitting caller's own driver-loop share is
    /// excluded. This shows how the contended worker capacity was
    /// divided. (The scheduler's virtual clock charges *total* service,
    /// including self-served batches, so sessions that drain their own
    /// jobs yield pool assist to sessions that cannot; under sustained
    /// contention the worker-served split still tracks weights.)
    pub worker_batches: u64,
    /// Nominal bytes split by this session's pool jobs
    /// (`total_elements · Σ elem_size_bytes` per stage, from the split
    /// info API) — the cost signal behind per-session byte budgets.
    pub bytes: u64,
    /// Fair-share weight under deficit-weighted round-robin (see
    /// [`crate::pool::WorkerPool::set_session_weight`]); defaults to 1.
    pub weight: u32,
}

/// Counters of the persistent worker pool (see [`crate::pool`]),
/// observable through `MozartContext::pool_stats` and
/// [`crate::pool::PoolHandle::stats`].
///
/// These expose the scheduler behavior the Figure 5 overhead analysis
/// cares about: how often workers park/unpark between stages, how many
/// batches each worker claimed from the shared cursor, and how many of
/// those claims were *steals* — batches that static partitioning would
/// have assigned to a different worker. A healthy dynamic schedule on a
/// skewed workload shows nonzero steals and per-worker batch counts
/// that are all positive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of pool threads (the calling thread participates in
    /// stages as one extra worker and is not counted here).
    pub workers: usize,
    /// Stages dispatched to the pool (single-worker stages run inline
    /// on the calling thread and are not counted).
    pub jobs: u64,
    /// Times a worker went to sleep waiting for stage work.
    pub parks: u64,
    /// Times a worker woke up with stage work to do.
    pub unparks: u64,
    /// Batches claimed by a worker that static partitioning would have
    /// assigned to a different worker.
    pub batches_stolen: u64,
    /// Batches processed per participant slot (index 0 is the calling
    /// thread; 1.. are pool workers in job-join order).
    pub per_worker_batches: Vec<u64>,
    /// Cursor claims per participant slot. One claim covers a *guided
    /// span* of `max(1, remaining / (2 · participants))` batches, so on
    /// large stages this stays far below `per_worker_batches` — the
    /// cursor-contention reduction the ROADMAP's "guided claim spans"
    /// item asks for.
    pub per_worker_claims: Vec<u64>,
    /// Per-session usage, sorted by session tag. Only stages dispatched
    /// to the pool are accounted; inline single-worker stages cost the
    /// pool nothing.
    pub sessions: Vec<SessionPoolStats>,
    /// Batch-driver runs that ended in a caught panic
    /// ([`Error::TaskPanicked`](crate::Error)): the panic failed its
    /// job, the worker survived.
    pub panicked_batches: u64,
    /// Worker threads the respawn supervisor replaced after they died
    /// to an unwinding panic that escaped the phase wrappers. The pool
    /// always ends with its full complement:
    /// `respawned_workers + surviving == initial`.
    pub respawned_workers: u64,
}

impl PoolStats {
    /// Total batches processed across participants.
    pub fn total_batches(&self) -> u64 {
        self.per_worker_batches.iter().sum()
    }

    /// Total cursor claims across participants. With guided claim spans
    /// this is at most [`PoolStats::total_batches`], and much smaller on
    /// large stages.
    pub fn total_claims(&self) -> u64 {
        self.per_worker_claims.iter().sum()
    }

    /// Whether every participant that joined a stage processed at least
    /// one batch (the load-balance property dynamic scheduling buys).
    pub fn all_workers_productive(&self) -> bool {
        let active: Vec<&u64> = self
            .per_worker_batches
            .iter()
            .take(self.workers + 1)
            .collect();
        !active.is_empty() && active.into_iter().all(|&b| b > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_stats_productivity_check() {
        let mut p = PoolStats {
            workers: 2,
            ..Default::default()
        };
        assert!(!p.all_workers_productive(), "no observations yet");
        p.per_worker_batches = vec![4, 3, 2];
        assert!(p.all_workers_productive());
        p.per_worker_batches[2] = 0;
        assert!(!p.all_workers_productive());
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = PhaseStats {
            client: Duration::from_millis(1),
            stages: 1,
            ..Default::default()
        };
        let b = PhaseStats {
            client: Duration::from_millis(2),
            task: Duration::from_millis(10),
            stages: 2,
            calls: 5,
            inline_calls: 2,
            recomputed_values: 3,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.client, Duration::from_millis(3));
        assert_eq!(a.task, Duration::from_millis(10));
        assert_eq!(a.stages, 3);
        assert_eq!(a.calls, 5);
        assert_eq!(a.inline_calls, 2);
        assert_eq!(a.recomputed_values, 3);
        assert_eq!(a.total(), Duration::from_millis(13));
    }

    #[test]
    fn percentages_sum_to_100() {
        let s = PhaseStats {
            client: Duration::from_millis(10),
            unprotect: Duration::from_millis(10),
            planner: Duration::from_millis(20),
            split: Duration::from_millis(20),
            task: Duration::from_millis(30),
            merge: Duration::from_millis(10),
            ..Default::default()
        };
        let p = s.percentages();
        let sum: f64 = p.iter().sum();
        assert!((sum - 100.0).abs() < 1e-9, "sum was {sum}");
        assert!((p[4] - 30.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_have_zero_percentages() {
        assert_eq!(PhaseStats::default().percentages(), [0.0; 6]);
    }
}
