//! The four batch workloads: one operation is one Mozart evaluation — a
//! fresh context on the warm pool and plan cache, capture of the lazy
//! calls, evaluate, read of the result — checked against what the
//! un-annotated library returns for the same inputs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dataframe::DataFrame;
use imagelib::Image;
use mozart_core::{
    Config, MozartContext, PhaseStats, PlanCache, PoolHandle, PoolStats, SharedVec, TraceRecorder,
};
use workloads::{black_scholes as bs, crime_index, images};

use crate::contract::{Reduction, RunArgs, RunOutput, ThreadOps, WORKERS};
use crate::layers;
use crate::spans::SpanLog;
use crate::stats::median;

/// Evaluations run and discarded before anything is timed: they start
/// the pool, fill the plan cache and fault the allocator's pages in.
const WARM_UP_EVALS: usize = 3;

/// In the traced pass the fused baseline runs once per this many
/// Mozart/base cycles; it is context for the headline ratio, not the
/// system under test.
const FUSED_EVERY: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    BlackScholes { n: usize },
    CrimeIndex { rows: usize },
    Nashville { width: usize, height: usize },
}

/// A batch workload's fixed parameters. Sizes never change with
/// `--seconds`; only the number of repetitions does.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    pub name: &'static str,
    kind: Kind,
    /// Relative tolerance of the result check (`workloads::close`).
    tol: f64,
    /// Times set-up runs per process; `setup_s` is the median.
    setups: usize,
    /// How the window's operations become the end-to-end metrics.
    how: Reduction,
}

/// The three slow workloads finish ~70 operations in a 10 s run: p75
/// keeps ten samples beyond it, and there is nothing to cut windows from.
const WHOLE_RUN_P75: Reduction = Reduction {
    tail_pct: 75.0,
    quiet_windows_of: None,
};

/// The batch workload called `name`, if there is one.
pub fn spec(name: &str) -> Option<BatchSpec> {
    Some(match name {
        // 16 MiB per array: 8x the 2 MiB per-core L2, so every operator
        // of the un-pipelined library streams from memory.
        "bs_mkl.large" => BatchSpec {
            name: "bs_mkl.large",
            kind: Kind::BlackScholes { n: 1 << 21 },
            tol: 1e-9,
            setups: 3,
            how: WHOLE_RUN_P75,
        },
        // 4 KiB per array: the whole pipeline fits L1 and the
        // runtime's fixed cost per evaluation is what is measured.
        "bs_mkl.small" => BatchSpec {
            name: "bs_mkl.small",
            kind: Kind::BlackScholes { n: 512 },
            tol: 1e-9,
            setups: 25,
            // ~110 000 operations of ~87 µs per run. Another tenant's
            // bursts on this host move the whole-run median by 25% for
            // minutes at a time; windows of 100 operations (~9 ms; p90
            // keeps ten beyond it) let the quiet tenth be picked out.
            how: Reduction {
                tail_pct: 90.0,
                quiet_windows_of: Some(100),
            },
        },
        // The annotated reduction merges per-batch partial sums, so the
        // additions happen in another order than the library's.
        "crime_pandas" => BatchSpec {
            name: "crime_pandas",
            kind: Kind::CrimeIndex { rows: 1 << 21 },
            tol: 1e-6,
            setups: 3,
            how: WHOLE_RUN_P75,
        },
        "nashville_im" => BatchSpec {
            name: "nashville_im",
            kind: Kind::Nashville {
                width: 2400,
                height: 1800,
            },
            tol: 1e-9,
            setups: 3,
            how: WHOLE_RUN_P75,
        },
        _ => return None,
    })
}

/// Generated inputs of one workload.
pub enum Input {
    BlackScholes(bs::Inputs),
    CrimeIndex(DataFrame),
    Nashville(Image),
}

impl Input {
    fn generate(kind: Kind, seed: u64) -> Input {
        match kind {
            Kind::BlackScholes { n } => Input::BlackScholes(bs::generate(n, seed)),
            Kind::CrimeIndex { rows } => Input::CrimeIndex(crime_index::generate(rows, seed)),
            Kind::Nashville { width, height } => {
                Input::Nashville(images::generate(width, height, seed))
            }
        }
    }

    /// The reference: the un-annotated library, with its own internal
    /// threads where it has them (the paper's baselines; the dataframe
    /// library, like Pandas, has none).
    pub fn base(&self) -> Vec<f64> {
        match self {
            Input::BlackScholes(inp) => {
                vectormath::set_num_threads(WORKERS);
                let s = bs::mkl_base(inp);
                vectormath::set_num_threads(1);
                vec![s.call_sum, s.put_sum]
            }
            Input::CrimeIndex(df) => vec![crime_index::base(df).index_sum],
            Input::Nashville(img) => {
                imagelib::set_num_threads(WORKERS);
                let s = images::nashville_base(img);
                imagelib::set_num_threads(1);
                vec![s.mean]
            }
        }
    }

    /// The hand-fused single-pass implementation (the compiler stand-in).
    fn fused(&self) -> Vec<f64> {
        match self {
            Input::BlackScholes(inp) => {
                let s = bs::fused(inp, WORKERS);
                vec![s.call_sum, s.put_sum]
            }
            Input::CrimeIndex(df) => vec![crime_index::fused(df, WORKERS).index_sum],
            Input::Nashville(img) => vec![images::nashville_fused(img, WORKERS).mean],
        }
    }

    /// One operation of the system under test. Black Scholes exposes its
    /// capture step on its own, so its spans separate capture, evaluate
    /// and read; the other two pipelines are one call from outside.
    fn mozart(&self, ctx: &MozartContext, log: &mut SpanLog) -> mozart_core::Result<Vec<f64>> {
        match self {
            Input::BlackScholes(inp) => {
                let (call, put) = log.span("capture", |_| {
                    let shared = |v: &Vec<f64>| SharedVec::from_vec(v.clone());
                    bs::mkl_chain(
                        ctx,
                        &shared(&inp.price),
                        &shared(&inp.strike),
                        &shared(&inp.t),
                        &shared(&inp.rate),
                        &shared(&inp.vol),
                    )
                })?;
                log.span("evaluate", |_| ctx.evaluate())?;
                let s = log.span("read", |_| {
                    bs::summarize_range(call.as_slice(), put.as_slice())
                });
                Ok(vec![s.call_sum, s.put_sum])
            }
            Input::CrimeIndex(df) => {
                let s = log.span("capture_evaluate_read", |_| crime_index::mozart(df, ctx))?;
                Ok(vec![s.index_sum])
            }
            Input::Nashville(img) => {
                let s = log.span("capture_evaluate_read", |_| {
                    images::nashville_mozart(img, ctx)
                })?;
                Ok(vec![s.mean])
            }
        }
    }
}

/// `got` agrees with `reference`, value for value, within `tol`.
pub fn agrees(got: &[f64], reference: &[f64], tol: f64) -> bool {
    got.len() == reference.len()
        && got
            .iter()
            .zip(reference)
            .all(|(g, r)| workloads::close(*g, *r, tol))
}

/// What an application keeps warm between evaluations: the worker pool
/// and the plan cache. Every evaluation gets a fresh `MozartContext`
/// attached to both, as `mozart-serve` gives every request one: a
/// context's dataflow graph is append-only and keeps every value it has
/// evaluated, so one context reused for thousands of evaluations holds
/// all their buffers (this benchmark's first runs peaked at 190 MiB per
/// `bs_mkl.large` evaluation that way).
pub struct Runtime {
    config: Config,
    pool: PoolHandle,
    cache: Arc<PlanCache>,
}

impl Runtime {
    fn new(recorder: Option<Arc<TraceRecorder>>) -> Runtime {
        workloads::register_all_defaults();
        let mut config = Config::with_workers(WORKERS);
        config.tracing = recorder;
        Runtime {
            config,
            // The evaluating thread is a worker too.
            pool: PoolHandle::new(WORKERS - 1),
            cache: Arc::new(PlanCache::new(64)),
        }
    }

    /// A context for one evaluation. One session tag for all of them,
    /// so the pool accounts them as the one client they are.
    fn context(&self) -> MozartContext {
        let ctx = MozartContext::new(self.config.clone());
        ctx.attach_pool(self.pool.clone())
            .attach_plan_cache(self.cache.clone())
            .set_session_tag(1);
        ctx
    }

    /// One operation: context, capture, evaluate, read. Returns the
    /// result and the phase times the runtime accounted to it.
    fn op(&self, input: &Input, log: &mut SpanLog) -> (mozart_core::Result<Vec<f64>>, PhaseStats) {
        let ctx = self.context();
        let got = input.mozart(&ctx, log);
        (got, ctx.stats())
    }

    fn warm_up(&self, input: &Input, log: &mut SpanLog) -> Result<(), String> {
        log.span("warm_up", |log| {
            for _ in 0..WARM_UP_EVALS {
                self.op(input, log)
                    .0
                    .map_err(|e| format!("warm-up evaluation failed: {e}"))?;
            }
            Ok(())
        })
    }
}

/// Everything between process start and the first timed operation.
fn setup(spec: &BatchSpec, seed: u64, log: &mut SpanLog) -> Result<(Input, Runtime), String> {
    log.span("setup", |log| {
        let input = log.span("generate", |_| Input::generate(spec.kind, seed));
        let rt = log.span("runtime_build", |_| Runtime::new(None));
        rt.warm_up(&input, log)?;
        Ok((input, rt))
    })
}

/// Run operations back to back until `seconds` have passed (at least
/// one), checking each result. Returns the operations and the failure
/// count.
fn measure(
    input: &Input,
    rt: &Runtime,
    reference: &[f64],
    tol: f64,
    seconds: f64,
    log: &mut SpanLog,
) -> (ThreadOps, u64) {
    let mut ops = ThreadOps::default();
    let mut failed = 0;
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let (got, _) = log.span("mozart_op", |log| rt.op(input, log));
        ops.push(secs(t0.elapsed()), secs(start.elapsed()));
        if !got.is_ok_and(|g| agrees(&g, reference, tol)) {
            failed += 1;
        }
        if secs(start.elapsed()) >= seconds {
            break;
        }
    }
    (ops, failed)
}

/// The untraced pass: the end-to-end metrics.
pub fn run_end_to_end(spec: &BatchSpec, args: &RunArgs) -> Result<RunOutput, String> {
    let mut log = SpanLog::new(Instant::now(), 0, false);
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..spec.setups {
        // The previous set-up's buffers and pool go first, so the peak
        // footprint is one set-up's, however often it is repeated.
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup(spec, args.seed, &mut log)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (input, rt) = state.expect("setups is at least one");
    let reference = input.base();

    let (ops, failed) = measure(&input, &rt, &reference, spec.tol, args.seconds, &mut log);
    let mut out = RunOutput::end_to_end(&[ops], failed, &setup_s, spec.how);
    out.detail("peak_rss_mb", crate::envstamp::peak_rss_mb(), "MB");
    Ok(out)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// `max ÷ mean` of the batches each participant slot processed between
/// two pool snapshots; 1.0 is a perfectly even schedule.
pub fn worker_imbalance(before: &PoolStats, after: &PoolStats) -> f64 {
    let delta: Vec<f64> = after
        .per_worker_batches
        .iter()
        .enumerate()
        .map(|(i, &a)| (a - before.per_worker_batches.get(i).copied().unwrap_or(0)) as f64)
        .collect();
    let total: f64 = delta.iter().sum();
    if total == 0.0 {
        return 1.0;
    }
    let max = delta.iter().copied().fold(0.0, f64::max);
    max / (total / delta.len() as f64)
}

/// The traced pass: the same inputs, a context with `Config::tracing`
/// on interleaved with an untraced one, the base library and the fused
/// baseline, the benchmark's own spans around every call, and direct
/// calls into single layers afterwards.
pub fn run_traced(
    spec: &BatchSpec,
    args: &RunArgs,
    log: &mut SpanLog,
) -> Result<RunOutput, String> {
    let (input, rt_off) = setup(spec, args.seed, log)?;
    let rt_on = log.span("runtime_build", |_| {
        Runtime::new(Some(TraceRecorder::new()))
    });
    rt_on.warm_up(&input, log)?;
    let reference = input.base();

    let pool_before = rt_on.pool.stats();
    let cache_before = rt_on.cache.stats();
    let mut phases = PhaseStats::default();
    let (mut off_s, mut on_s, mut base_s, mut fused_s) = (vec![], vec![], vec![], vec![]);
    let mut failed = 0u64;
    let check = |got: mozart_core::Result<Vec<f64>>, failed: &mut u64| {
        if !got.is_ok_and(|g| agrees(&g, &reference, spec.tol)) {
            *failed += 1;
        }
    };

    let window = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut cycle = 0usize;
    while cycle == 0 || start.elapsed() < window {
        // Alternate which context goes first, so neither always runs on
        // the caches the base library just emptied.
        let traced_first = !cycle.is_multiple_of(2);
        for traced in [traced_first, !traced_first] {
            let t0 = Instant::now();
            if traced {
                let (got, stats) = log.span("mozart_traced", |log| rt_on.op(&input, log));
                on_s.push(secs(t0.elapsed()));
                phases.accumulate(&stats);
                check(got, &mut failed);
            } else {
                let (got, _) = log.span("mozart_untraced", |log| rt_off.op(&input, log));
                off_s.push(secs(t0.elapsed()));
                check(got, &mut failed);
            }
        }
        let t0 = Instant::now();
        std::hint::black_box(log.span("base_call", |_| input.base()));
        base_s.push(secs(t0.elapsed()));
        if cycle.is_multiple_of(FUSED_EVERY) {
            let t0 = Instant::now();
            let got = log.span("fused_call", |_| input.fused());
            fused_s.push(secs(t0.elapsed()));
            // The fused kernels use their own polynomial math; they are
            // timed as context and checked loosely, never counted as
            // operations of the system under test.
            if !agrees(&got, &reference, 1e-3) {
                return Err(format!(
                    "{}: fused baseline disagrees with the base library",
                    spec.name
                ));
            }
        }
        cycle += 1;
    }
    let pool_after = rt_on.pool.stats();
    let cache_after = rt_on.cache.stats();

    let ops = on_s.len() as f64;
    let per_op_us = |d: Duration| secs(d) * 1e6 / ops;
    let per_op = |count: u64| count as f64 / ops;
    let traced_wall: f64 = on_s.iter().sum();
    let accounted = secs(phases.total());
    let (moz_ms, base_ms, fused_ms) = (
        median(&off_s) * 1e3,
        median(&base_s) * 1e3,
        median(&fused_s) * 1e3,
    );
    let hits = (cache_after.hits - cache_before.hits) as f64;
    let misses = (cache_after.misses - cache_before.misses) as f64;

    let mut out = RunOutput {
        attempted: (on_s.len() + off_s.len()) as u64,
        failed,
        ..RunOutput::default()
    };
    out.metric("planner.plan_us", per_op_us(phases.planner), "us");
    out.metric(
        "planner.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    let (miss_us, hit_us) = layers::planner_miss_vs_hit(&input_op(&input), log)?;
    out.metric("planner.miss_us", miss_us, "us");
    out.metric("planner.hit_us", hit_us, "us");
    out.metric("buffer.unprotect_us", per_op_us(phases.unprotect), "us");
    out.metric("split.split_us", per_op_us(phases.split), "us");
    out.metric("split.merge_us", per_op_us(phases.merge), "us");
    out.metric("split.merge_share", phases.merge_fraction(), "ratio");
    let probe = layers::split_probe(&split_subject(&input), log)?;
    out.metric("split.ns_per_piece", probe.ns_per_piece, "ns");
    out.metric("split.merge_gbps", probe.merge_gbps, "GB/s");
    out.metric("split.copy_gbps", probe.copy_gbps, "GB/s");
    out.detail("split.probe_pieces", probe.pieces as f64, "count");
    out.metric("executor.task_us", per_op_us(phases.task), "us");
    out.metric(
        "executor.task_share",
        secs(phases.task) / accounted.max(f64::MIN_POSITIVE),
        "ratio",
    );
    out.metric("executor.batches_per_op", per_op(phases.batches), "count");
    out.metric("pool.roundtrip_us", layers::pool_roundtrip_us(log)?, "us");
    out.metric(
        "pool.worker_imbalance",
        worker_imbalance(&pool_before, &pool_after),
        "ratio",
    );
    let parks = pool_after.parks - pool_before.parks;
    out.metric("pool.parks_per_op", per_op(parks), "count");
    out.metric("attributed_share", accounted / traced_wall, "ratio");
    out.metric("base_ms", base_ms, "ms");
    out.metric("speedup_vs_base", base_ms / moz_ms, "ratio");
    out.metric("trace_overhead", median(&on_s) / median(&off_s), "ratio");
    out.metric("peak_rss_mb", crate::envstamp::peak_rss_mb(), "MB");

    out.detail("mozart_ms", moz_ms, "ms");
    out.detail("mozart_samples", off_s.len() as f64, "count");
    out.detail("traced_samples", ops, "count");
    out.detail("base_samples", base_s.len() as f64, "count");
    out.detail("fused_ms", fused_ms, "ms");
    out.detail("fused_samples", fused_s.len() as f64, "count");
    out.detail("ratio_vs_fused", fused_ms / moz_ms, "ratio");
    out.detail("graph.client_us", per_op_us(phases.client), "us");
    out.detail(
        "client_plus_planner_share",
        secs(phases.client + phases.planner) / (median(&on_s) * ops),
        "ratio",
    );
    // What the phase counters do not explain is its own row, not hidden
    // inside a share.
    out.detail("unattributed_s", traced_wall - accounted, "s");
    out.detail("executor.stages_per_op", per_op(phases.stages), "count");
    out.detail("split.bytes_split_per_op", per_op(phases.bytes_split), "B");
    out.detail(
        "split.bytes_merged_per_op",
        per_op(phases.bytes_merged),
        "B",
    );
    for (name, count) in [
        ("split.placement_writes_per_op", phases.placement_writes),
        (
            "split.split_form_handoffs_per_op",
            phases.split_form_handoffs,
        ),
        (
            "pool.unparks_per_op",
            pool_after.unparks - pool_before.unparks,
        ),
        (
            "pool.batches_stolen_per_op",
            pool_after.batches_stolen - pool_before.batches_stolen,
        ),
    ] {
        out.detail(name, per_op(count), "count");
    }
    // The cache model explains the workload whose arrays do not fit the
    // modelled cache; the small one never leaves L1.
    if matches!(spec.kind, Kind::BlackScholes { n } if n * 8 > 8 << 20) {
        let (base_pct, mozart_pct) = layers::simulated_llc_miss_pct(args.seed, log)?;
        out.detail("cachesim.llc_miss_pct.base_order", base_pct, "%");
        out.detail("cachesim.llc_miss_pct.mozart_order", mozart_pct, "%");
        out.notes.push(
            "cachesim.* is simulated: Black Scholes n=2^18, workers=1, operand streams \
             replayed through an 8 MiB LLC model; exact counts, not hardware counters"
                .into(),
        );
    }
    Ok(out)
}

/// The workload's operation as a closure over a context, for the layer
/// probes that need to evaluate the same graph under their own context.
fn input_op(input: &Input) -> impl Fn(&MozartContext) -> mozart_core::Result<()> + '_ {
    move |ctx| {
        let mut silent = SpanLog::new(Instant::now(), 0, false);
        input.mozart(ctx, &mut silent).map(|_| ())
    }
}

/// The value and split type the workload's merge path runs on, with the
/// bytes a full split or merge of it moves.
fn split_subject(input: &Input) -> layers::SplitSubject {
    use mozart_core::{ArraySplit, DataValue, VecValue};
    match input {
        Input::BlackScholes(inp) => layers::SplitSubject {
            splitter: Arc::new(ArraySplit),
            value: DataValue::new(VecValue(SharedVec::from_vec(inp.price.clone()))),
            bytes: inp.price.len() * 8,
        },
        Input::CrimeIndex(df) => layers::SplitSubject {
            splitter: sa_dataframe::RowSplit::shared(),
            value: DataValue::new(sa_dataframe::DfValue(df.clone())),
            bytes: df.num_rows() * df.num_cols() * 8,
        },
        Input::Nashville(img) => layers::SplitSubject {
            splitter: sa_image::ImageSplit::shared(),
            value: DataValue::new(sa_image::ImgValue(img.clone())),
            bytes: std::mem::size_of_val(img.data()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BatchSpec {
        BatchSpec {
            kind: Kind::BlackScholes { n: 512 },
            ..spec("bs_mkl.small").unwrap()
        }
    }

    #[test]
    fn every_operation_fails_against_a_wrong_reference() {
        let spec = tiny();
        let mut log = SpanLog::new(Instant::now(), 0, false);
        let (input, rt) = setup(&spec, 7, &mut log).unwrap();
        let right = input.base();
        let (ops, failed) = measure(&input, &rt, &right, spec.tol, 0.02, &mut log);
        assert!(!ops.latency_s.is_empty());
        assert_eq!(failed, 0, "the system agrees with the base library");

        let wrong: Vec<f64> = right.iter().map(|v| v * 1.001).collect();
        let (ops, failed) = measure(&input, &rt, &wrong, spec.tol, 0.02, &mut log);
        assert_eq!(failed, ops.latency_s.len() as u64);
        let out = RunOutput::end_to_end(&[ops], failed, &[0.1], spec.how);
        assert_eq!(out.fail_ratio(), 1.0);
        let rate = out.metrics.iter().find(|m| m.name == "ops_per_s").unwrap();
        assert_eq!(
            rate.value, 0.0,
            "only correct operations count as throughput"
        );
    }

    #[test]
    fn agreement_is_per_value_and_length_checked() {
        assert!(agrees(&[1.0, 2.0], &[1.0, 2.0 + 1e-12], 1e-9));
        assert!(!agrees(&[1.0, 2.0], &[1.0, 2.1], 1e-9));
        assert!(!agrees(&[1.0], &[1.0, 2.0], 1e-9));
    }

    #[test]
    fn imbalance_is_max_over_mean_of_the_window() {
        let snap = |b: &[u64]| PoolStats {
            per_worker_batches: b.to_vec(),
            ..PoolStats::default()
        };
        assert_eq!(worker_imbalance(&snap(&[10, 10]), &snap(&[20, 20])), 1.0);
        assert_eq!(worker_imbalance(&snap(&[0, 0]), &snap(&[30, 10])), 1.5);
        assert_eq!(worker_imbalance(&snap(&[5, 5]), &snap(&[5, 5])), 1.0);
    }
}
