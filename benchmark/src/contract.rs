//! The names the benchmark is held to. `BENCHMARK.json` at the root of
//! the repository lists the same workloads and metrics; a unit test
//! keeps the two in step, so a later change cannot rename a metric in
//! one place only.

/// Threads the system under test, the base libraries and the load
/// generator each get: the machine this benchmark is sized for has two
/// cores.
pub const WORKERS: usize = 2;

/// Workload names, in the order the suite runs them.
pub const WORKLOADS: [&str; 5] = [
    "bs_mkl.large",
    "bs_mkl.small",
    "crime_pandas",
    "nashville_im",
    "serve.mix",
];

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// `--trace 0`. An "operation" is one Mozart evaluation on the batch
/// workloads and one request on `serve.mix`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload with
/// `--trace 1`. Metrics that exist on some workloads only (the serving
/// histograms, the fused baseline, the cache simulation) are printed and
/// stored by the suite but are not part of this list, because the
/// driver expects every listed metric from every workload.
pub const PER_LAYER: [(&str, &str); 22] = [
    ("planner.plan_us", "us"),
    ("planner.hit_ratio", "ratio"),
    ("planner.miss_us", "us"),
    ("planner.hit_us", "us"),
    ("buffer.unprotect_us", "us"),
    ("split.split_us", "us"),
    ("split.merge_us", "us"),
    ("split.merge_share", "ratio"),
    ("split.ns_per_piece", "ns"),
    ("split.merge_gbps", "GB/s"),
    ("split.copy_gbps", "GB/s"),
    ("executor.task_us", "us"),
    ("executor.task_share", "ratio"),
    ("executor.batches_per_op", "count"),
    ("pool.roundtrip_us", "us"),
    ("pool.worker_imbalance", "ratio"),
    ("pool.parks_per_op", "count"),
    ("attributed_share", "ratio"),
    ("base_ms", "ms"),
    ("speedup_vs_base", "ratio"),
    ("trace_overhead", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations attempted in the measuring window.
    pub attempted: u64,
    /// Of those, operations that errored, were refused, or disagreed
    /// with the reference.
    pub failed: u64,
    /// The contract metrics: [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<Metric>,
    /// Everything else worth printing: sample counts, quartiles,
    /// workload-specific layer metrics.
    pub detail: Vec<Metric>,
    /// Statements the output must carry in words (closed loop, which
    /// layers the traffic does not exercise, ...).
    pub notes: Vec<String>,
}

impl RunOutput {
    /// The untraced pass's output: the four end-to-end metrics from the
    /// window's operations, with the sample counts, quartiles and
    /// minimum a median is to be read with, and the whole-run percentile
    /// ladder so the numbers reported can be judged against it.
    pub fn end_to_end(
        threads: &[ThreadOps],
        failed: u64,
        setup_s: &[f64],
        how: Reduction,
    ) -> RunOutput {
        use crate::stats::{
            beyond, grouped_rate, highest_tail_percentile, median, percentile, quartiles,
            quiet_windows,
        };
        // All threads' operations as one stream, in completion order.
        let mut ops: Vec<(f64, f64)> = threads
            .iter()
            .flat_map(|t| {
                t.end_s
                    .iter()
                    .copied()
                    .zip(t.latency_s.iter().map(|s| s * 1e3))
            })
            .collect();
        ops.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (end_s, latency_ms): (Vec<f64>, Vec<f64>) = ops.into_iter().unzip();
        let latency_ms = &latency_ms[..];
        let window_s = end_s.last().copied().unwrap_or(f64::NAN);

        let mut out = RunOutput {
            attempted: latency_ms.len() as u64,
            failed,
            ..RunOutput::default()
        };
        let whole_run = (
            median(latency_ms),
            percentile(latency_ms, how.tail_pct).0,
            grouped_rate(&end_s, RATE_GROUPS),
        );
        let (p50_ms, tail_ms, rate) = how
            .quiet_windows_of
            .and_then(|per| quiet_windows(latency_ms, &end_s, per, how.tail_pct))
            .unwrap_or(whole_run);
        out.metric("p50_ms", p50_ms, "ms");
        out.metric("tail_ms", tail_ms, "ms");
        out.metric("ops_per_s", rate * (1.0 - out.fail_ratio()), "1/s");
        out.metric("setup_s", median(setup_s), "s");

        out.detail("window_s", window_s, "s");
        out.detail("whole_run_p50_ms", whole_run.0, "ms");
        out.detail("whole_run_tail_ms", whole_run.1, "ms");
        out.detail("whole_run_grouped_ops_per_s", whole_run.2, "1/s");
        out.detail(
            "ops_per_s_count_over_window",
            (out.attempted - failed) as f64 / window_s,
            "1/s",
        );
        out.detail(
            "quiet_window_ops",
            how.quiet_windows_of.unwrap_or(0) as f64,
            "count",
        );
        out.detail("samples", latency_ms.len() as f64, "count");
        out.detail("tail_percentile", how.tail_pct, "%");
        // The tail is taken over one quiet window, or over the whole run.
        let tail_population = how.quiet_windows_of.unwrap_or(latency_ms.len());
        out.detail(
            "tail_samples_beyond",
            beyond(tail_population, how.tail_pct) as f64,
            "count",
        );
        out.detail(
            "highest_percentile_with_10_beyond",
            highest_tail_percentile(latency_ms.len()).unwrap_or(50.0),
            "%",
        );
        if let Some([q1, _, q3]) = quartiles(latency_ms) {
            out.detail("p25_ms", q1, "ms");
            out.detail("p75_ms", q3, "ms");
        }
        for pct in [90.0, 99.0, 99.9] {
            out.detail(format!("p{pct}_ms"), percentile(latency_ms, pct).0, "ms");
        }
        out.detail(
            "min_ms",
            latency_ms.iter().copied().fold(f64::INFINITY, f64::min),
            "ms",
        );
        out.detail("setup_samples", setup_s.len() as f64, "count");
        if let Some([q1, _, q3]) = quartiles(setup_s) {
            out.detail("setup_p25_s", q1, "s");
            out.detail("setup_p75_s", q3, "s");
        }
        out.detail("fail_ratio", out.fail_ratio(), "ratio");
        out
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.detail.push(Metric::new(name, value, unit));
    }

    /// Operations failed ÷ attempted.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One closed-loop thread's operations in completion order.
#[derive(Debug, Default)]
pub struct ThreadOps {
    /// Per-operation latency in seconds.
    pub latency_s: Vec<f64>,
    /// Per-operation completion time, in seconds since the window opened.
    pub end_s: Vec<f64>,
}

impl ThreadOps {
    pub fn push(&mut self, latency_s: f64, end_s: f64) {
        self.latency_s.push(latency_s);
        self.end_s.push(end_s);
    }
}

/// How a workload's window of operations becomes `p50_ms`, `tail_ms`
/// and `ops_per_s`. Fixed per workload, so two runs never report
/// different things.
#[derive(Debug, Clone, Copy)]
pub struct Reduction {
    /// The percentile `tail_ms` reports: the highest rung of the ladder
    /// in `stats` that keeps ten samples beyond it in the population it
    /// is taken over (the run, or one quiet window) on the seed commit.
    pub tail_pct: f64,
    /// `None`: the three metrics are the whole run's median, tail
    /// percentile and median grouped rate. `Some(n)`: they are the
    /// quietest-decile values over windows of `n` operations (see
    /// `stats::quiet_windows`); for workloads whose operation is short
    /// enough that a 10 s run holds thousands of windows.
    pub quiet_windows_of: Option<usize>,
}

/// Runs of operations the whole-run `ops_per_s` takes its median rate
/// over (see `stats::grouped_rate`).
const RATE_GROUPS: usize = 10;

/// Arguments of one run, as the driver passes them.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}
