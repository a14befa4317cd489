//! The paper's evaluation in one bench, each figure driven by a table:
//!
//! * Fig. 4 (4a–4o; Fig. 1 is panel 4j): each workload family's plain
//!   library, its fused-compiler stand-in (none for spaCy) and Mozart
//!   across `MOZART_BENCH_THREADS`;
//! * Fig. 5: the six-phase runtime breakdown of Black Scholes (MKL) and
//!   Nashville, plus the wall time of a short pipeline evaluated
//!   repeatedly on the persistent pool;
//! * Fig. 6: Black Scholes and nBody over a batch-size sweep, beside the
//!   batch the engine's own counters report for a default-config run;
//! * Fig. 7: relative compute intensity per operator (a) and Mozart's
//!   speedup over MKL for ten chained calls of each (b);
//! * Table 4: pipelining on and off, with runtime and the LLC miss rate
//!   `cachesim` measures over the kernels' operand streams.
//!
//! Writes `bench_results/paper.json`: an env stamp, one section per
//! figure, `losses` (every Fig. 4 family whose Mozart time is worse than
//! its base at the largest thread count) and `shapes`. Only the
//! deterministic shape is asserted — Table 4's simulated "-pipe" miss
//! rate is at least the pipelined one. The wall-time shapes (Fig. 6
//! "within 10% of best", Fig. 7 "speedup does not increase with
//! intensity") are recorded, not asserted.

use std::hint::black_box;

use cachesim::CacheConfig;
use mozart_bench::{
    losses, non_increasing, time_min, with_image_threads, with_mkl_threads, within_of_best,
    write_results, BenchOpts,
};
use mozart_core::{Config, MozartContext, Result, SharedVec};
use sa_vectormath as sa;
use vectormath as vm;
use workloads::{
    birth_analysis as ba, black_scholes as bs, crime_index as ci, data_cleaning as dc,
    haversine as hv, images as im, movielens as ml, nbody as nb, shallow_water as sw,
    speech_tag as st,
};
use Lib::{Image, Mkl, Serial};

/// How a family's plain library uses threads: a serial one (NumPy,
/// Pandas, spaCy) is timed once and drawn flat across the sweep; an
/// internally parallel one (MKL, ImageMagick) runs at each thread count.
#[derive(Clone, Copy)]
enum Lib {
    Serial,
    Mkl,
    Image,
}

/// Seconds per swept thread count for one family's systems.
struct Curves {
    base: Vec<f64>,
    fused: Option<Vec<f64>>,
    mozart: Vec<f64>,
}

impl Lib {
    /// Time a family's plain library, its fused stand-in and Mozart (on
    /// a fresh context per run) at each thread count.
    fn curves<B, F, M>(
        self,
        o: &BenchOpts,
        base: impl Fn() -> B,
        fused: Option<impl Fn(usize) -> F>,
        mozart: impl Fn(&MozartContext) -> Result<M>,
    ) -> Curves {
        let time = |f: &dyn Fn()| time_min(o.reps, f).as_secs_f64();
        let base_at = |t| match self {
            Serial => time(&|| _ = black_box(base())),
            Mkl => time(&|| _ = with_mkl_threads(t, || black_box(base()))),
            Image => time(&|| _ = with_image_threads(t, || black_box(base()))),
        };
        let serial = matches!(self, Serial).then(|| base_at(1));
        let mut c = Curves {
            base: vec![],
            fused: fused.as_ref().map(|_| vec![]),
            mozart: vec![],
        };
        for &t in &o.threads {
            c.base.push(serial.unwrap_or_else(|| base_at(t)));
            if let (Some(f), Some(points)) = (&fused, &mut c.fused) {
                points.push(time(&|| _ = black_box(f(t))));
            }
            c.mozart.push(time(&|| {
                let ctx = workloads::mozart_context(t);
                black_box(mozart(&ctx).expect("mozart run"));
            }));
        }
        c
    }
}

/// One Fig. 4 panel: `(panel, name as the paper captions it, run)`.
/// `run` generates the family's inputs at the bench's scale, with the
/// sizes and seeds of the paper's panels, and times its systems.
type Family = (&'static str, &'static str, fn(&BenchOpts) -> Curves);

const FIG4: [Family; 15] = [
    ("4a", "Black Scholes (NumPy)", |o| {
        let inp = bs::generate(o.size(1 << 20), 42);
        let (base, fused) = (|| bs::numpy_base(&inp), |t| bs::fused(&inp, t));
        Serial.curves(o, base, Some(fused), |c| bs::numpy_mozart(&inp, c))
    }),
    ("4b", "Haversine (NumPy)", |o| {
        let inp = hv::generate(o.size(1 << 20), 7);
        let (base, fused) = (|| hv::numpy_base(&inp), |t| hv::fused(&inp, t));
        Serial.curves(o, base, Some(fused), |c| hv::numpy_mozart(&inp, c))
    }),
    ("4c", "nBody (NumPy)", |o| {
        let b = nb::generate(o.size(700), 5);
        let base = || nb::numpy_base(&b, 2, 0.01);
        let fused = |t| nb::fused(&b, 2, 0.01, t);
        Serial.curves(o, base, Some(fused), |c| nb::numpy_mozart(&b, 2, 0.01, c))
    }),
    ("4d", "Shallow Water (NumPy)", |o| {
        let g = sw::generate(o.size(384));
        let base = || sw::numpy_base(&g, 4, 0.005);
        let fused = |t| sw::fused(&g, 4, 0.005, t);
        Serial.curves(o, base, Some(fused), |c| sw::numpy_mozart(&g, 4, 0.005, c))
    }),
    ("4e", "Data Cleaning (Pandas)", |o| {
        let df = dc::generate(o.size(1 << 20), 3);
        let (base, fused) = (|| dc::base(&df), |t| dc::fused(&df, t));
        Serial.curves(o, base, Some(fused), |c| dc::mozart(&df, c))
    }),
    ("4f", "Crime Index (Pandas)", |o| {
        let df = ci::generate(o.size(1 << 21), 4);
        let (base, fused) = (|| ci::base(&df), |t| ci::fused(&df, t));
        Serial.curves(o, base, Some(fused), |c| ci::mozart(&df, c))
    }),
    ("4g", "Birth Analysis (Pandas)", |o| {
        let df = ba::generate(o.size(1 << 20), 5);
        let (base, fused) = (|| ba::base(&df), |_| ba::fused(&df));
        Serial.curves(o, base, Some(fused), |c| ba::mozart(&df, c))
    }),
    ("4h", "MovieLens (Pandas)", |o| {
        let d = ml::generate(o.size(1 << 20), 6);
        let (base, fused) = (|| ml::base(&d), |_| ml::fused(&d));
        Serial.curves(o, base, Some(fused), |c| ml::mozart(&d, c))
    }),
    ("4i", "Speech Tag (spaCy)", |o| {
        let corpus = st::generate(o.size(3000), 120, 9);
        let base = || st::base(&corpus);
        Serial.curves(o, base, None::<fn(usize)>, |c| st::mozart(&corpus, c))
    }),
    ("4j", "Black Scholes (MKL)", |o| {
        let inp = bs::generate(o.size(1 << 21), 42);
        let (base, fused) = (|| bs::mkl_base(&inp), |t| bs::fused(&inp, t));
        Mkl.curves(o, base, Some(fused), |c| bs::mkl_mozart(&inp, c))
    }),
    ("4k", "Haversine (MKL)", |o| {
        let inp = hv::generate(o.size(1 << 21), 7);
        let (base, fused) = (|| hv::mkl_base(&inp), |t| hv::fused(&inp, t));
        Mkl.curves(o, base, Some(fused), |c| hv::mkl_mozart(&inp, c))
    }),
    ("4l", "nBody (MKL)", |o| {
        let b = nb::generate(o.size(700), 5);
        let base = || nb::mkl_base(&b, 2, 0.01);
        let fused = |t| nb::fused(&b, 2, 0.01, t);
        Mkl.curves(o, base, Some(fused), |c| nb::mkl_mozart(&b, 2, 0.01, c))
    }),
    ("4m", "Shallow Water (MKL)", |o| {
        let g = sw::generate(o.size(384));
        let base = || sw::mkl_base(&g, 4, 0.005);
        let fused = |t| sw::fused(&g, 4, 0.005, t);
        Mkl.curves(o, base, Some(fused), |c| sw::mkl_mozart(&g, 4, 0.005, c))
    }),
    ("4n", "Nashville (ImageMagick)", |o| {
        let img = im::generate(o.size(1600), o.size(1200), 3);
        let base = || im::nashville_base(&img);
        let fused = |t| im::nashville_fused(&img, t);
        Image.curves(o, base, Some(fused), |c| im::nashville_mozart(&img, c))
    }),
    ("4o", "Gotham (ImageMagick)", |o| {
        let img = im::generate(o.size(1600), o.size(1200), 3);
        let (base, fused) = (|| im::gotham_base(&img), |t| im::gotham_fused(&img, t));
        Image.curves(o, base, Some(fused), |c| im::gotham_mozart(&img, c))
    }),
];

/// A context over the default configuration with `edit` applied.
fn context(workers: usize, edit: impl FnOnce(&mut Config)) -> MozartContext {
    workloads::register_all_defaults();
    let mut cfg = Config::with_workers(workers);
    edit(&mut cfg);
    MozartContext::new(cfg)
}

/// Fig. 5: the phase breakdowns and the pool-reuse wall time.
fn fig5(o: &BenchOpts, threads: usize) -> String {
    let labels = ["client", "unprotect", "planner", "split", "task", "merge"];
    let breakdown = |name: &str, run: &dyn Fn(&MozartContext) -> Result<()>| {
        let ctx = workloads::mozart_context(threads);
        run(&ctx).expect("run");
        let p = ctx.take_stats().percentages();
        let cols: Vec<String> = labels
            .iter()
            .zip(p)
            .map(|(l, v)| format!("\"{l}\": {v:.4}"))
            .collect();
        let json = format!("\"{name}\": {{{}}}", cols.join(", "));
        println!("  {json}");
        json
    };
    println!("\n=== Fig. 5: percent of runtime per phase, {threads} threads ===");
    let inp = bs::generate(o.size(1 << 21), 42);
    let img = im::generate(o.size(1600), o.size(1200), 3);
    let bs_json = breakdown("black_scholes", &|c| bs::mkl_mozart(&inp, c).map(drop));
    let im_json = breakdown("nashville", &|c| im::nashville_mozart(&img, c).map(drop));

    // Repeated evaluations of a short pipeline maximize the per-stage
    // fixed costs Figure 5 is about: dispatch to the parked pool
    // workers, batch claiming, and the joins. The paper's 256 KiB L2
    // keeps the work floor (16 KiB) below the calls at every scale, so
    // they are staged rather than run at registration.
    let inp = bs::generate(o.size(1 << 16), 42);
    let ctx = context(threads, |c| c.l2_bytes = 256 << 10);
    let pass = || {
        for _ in 0..40 {
            bs::mkl_mozart(&inp, &ctx).expect("run");
        }
    };
    // One untimed pass first: the first evaluations fault in the input
    // pages, spawn the pool and warm the allocator.
    pass();
    ctx.take_stats();
    let reuse_s = time_min(o.reps, pass).as_secs_f64();
    // Stages accumulated over all reps; report one pass's worth.
    let stages = ctx.take_stats().stages / o.reps as u64;
    println!("  pool reuse: {reuse_s:.4}s for 40 evaluations ({stages} stages)");
    format!(
        "{{\"threads\": {threads}, {bs_json}, {im_json}, \
         \"pool_reuse_seconds\": {reuse_s:.6}, \"pool_reuse_stages\": {stages}}}"
    )
}

/// Fig. 6: one batch-size sweep (`first`, ×4, … ≤ `n`) beside the
/// default configuration's run, whose batch is read from the engine's
/// counters as elements × stages / batches (the whole input when the
/// calls ran at registration). Returns the section and whether the
/// default run is within 10% of the sweep's best.
fn fig6<T>(
    o: &BenchOpts,
    threads: usize,
    n: u64,
    first: u64,
    run: impl Fn(&MozartContext) -> Result<T>,
) -> (String, bool) {
    let timed = |batch: Option<u64>| {
        let once = || {
            let ctx = context(threads, |c| c.batch_override = batch);
            black_box(run(&ctx).expect("run"));
        };
        time_min(o.reps, once).as_secs_f64()
    };
    let ctx = context(threads, |_| {});
    run(&ctx).expect("run");
    let s = ctx.take_stats();
    let chosen = (n * s.stages).checked_div(s.batches).unwrap_or(n);
    let chosen_s = timed(None);
    let sweep: Vec<u64> = std::iter::successors(Some(first), |b| Some(b * 4))
        .take_while(|&b| b <= n)
        .collect();
    let secs: Vec<f64> = sweep.iter().map(|&b| timed(Some(b))).collect();
    let (stages, batches, seconds) = (s.stages, s.batches, list(&secs));
    let json = format!(
        "{{\"n\": {n}, \"chosen_batch\": {chosen}, \"stages\": {stages}, \"batches\": {batches}, \
         \"chosen_seconds\": {chosen_s:.6}, \"sweep_batches\": {sweep:?}, \
         \"sweep_seconds\": {seconds}}}"
    );
    println!("  {json}");
    (json, within_of_best(chosen_s, &secs, 0.1))
}

type RawKernel = unsafe fn(usize, *const f64, *mut f64);
type SaCall = fn(&MozartContext, usize, &SharedVec<f64>) -> Result<()>;

/// Fig. 7's operators: the raw kernel (binary ones take the array as
/// both operands) and its annotated call, in place on the array.
const OPS: [(&str, RawKernel, SaCall); 6] = [
    ("add", add_raw, |c, n, b| sa::vd_add(c, n, b, b, b)),
    ("mul", mul_raw, |c, n, b| sa::vd_mul(c, n, b, b, b)),
    ("div", div_raw, |c, n, b| sa::vd_div(c, n, b, b, b)),
    ("sqrt", vm::vd_sqrt_raw, |c, n, b| sa::vd_sqrt(c, n, b, b)),
    ("erf", vm::vd_erf_raw, |c, n, b| sa::vd_erf(c, n, b, b)),
    ("exp", vm::vd_exp_raw, |c, n, b| sa::vd_exp(c, n, b, b)),
];

unsafe fn add_raw(n: usize, a: *const f64, out: *mut f64) {
    // SAFETY: forwarded contract.
    unsafe { vm::vd_add_raw(n, a, a, out) }
}
unsafe fn mul_raw(n: usize, a: *const f64, out: *mut f64) {
    // SAFETY: forwarded contract.
    unsafe { vm::vd_mul_raw(n, a, a, out) }
}
unsafe fn div_raw(n: usize, a: *const f64, out: *mut f64) {
    // SAFETY: forwarded contract.
    unsafe { vm::vd_div_raw(n, a, a, out) }
}

/// Fig. 7: (a) relative intensity, seconds per byte on an L2-resident
/// array over `add`'s; (b) Mozart's speedup over MKL for ten chained
/// calls per operator. Returns the section and whether the speedup at
/// the largest thread count does not increase with intensity.
fn fig7(o: &BenchOpts) -> (String, bool) {
    let small = 8 * 1024; // 64 KiB: fits in L2
    let a = vec![1.000003f64; small];
    let mut out = vec![0.0f64; small];
    let mut cost = Vec::new();
    for (_, f, _) in OPS {
        let d = time_min(o.reps, || {
            for _ in 0..2000 {
                // SAFETY: same-length valid buffers; out is distinct.
                unsafe { f(small, a.as_ptr(), out.as_mut_ptr()) };
                black_box(&out);
            }
        });
        cost.push(d.as_secs_f64() / (2000.0 * small as f64 * 8.0));
    }

    let n = o.size(1 << 22);
    let data = vec![1.000003f64; n];
    println!("\n=== Fig. 7: intensity, Mozart speedup over MKL for 10 chained calls ===");
    let (mut ops, mut by_intensity) = (Vec::new(), Vec::new());
    for ((name, f, call), c) in OPS.into_iter().zip(&cost) {
        let mut row = Vec::new();
        for &t in &o.threads {
            // Un-annotated MKL: 10 full passes, internally parallel.
            let mkl = time_min(o.reps, || {
                with_mkl_threads(t, || {
                    let mut buf = data.clone();
                    for _ in 0..10 {
                        // SAFETY: exact in-place aliasing per kernel contract.
                        unsafe { f(n, buf.as_ptr(), buf.as_mut_ptr()) };
                    }
                    black_box(&buf);
                })
            });
            // Mozart: the same 10 calls annotated, pipelined, parallel.
            let moz = time_min(o.reps, || {
                let ctx = workloads::mozart_context(t);
                let buf = SharedVec::from_vec(data.clone());
                for _ in 0..10 {
                    call(&ctx, n, &buf).expect("register");
                }
                ctx.evaluate().expect("evaluate");
                black_box(buf.as_slice()[0]);
            });
            row.push(mkl.as_secs_f64() / moz.as_secs_f64());
        }
        let (x, speedup) = (c / cost[0], list(&row));
        ops.push(format!(
            "\"{name}\": {{\"intensity\": {x:.4}, \"speedup\": {speedup}}}"
        ));
        println!("  {}", ops[ops.len() - 1]);
        by_intensity.push((x, row[row.len() - 1]));
    }
    by_intensity.sort_by(|a, b| a.0.total_cmp(&b.0));
    let speedups: Vec<f64> = by_intensity.iter().map(|p| p.1).collect();
    let json = format!("{{\"n\": {n}, \"ops\": {{{}}}}}", ops.join(", "));
    (json, non_increasing(&speedups))
}

/// LLC miss rate of `run`, replaying its kernels' operand streams
/// through the `cachesim` model (the machine-independent stand-in for
/// `perf`).
fn llc_miss_pct(run: impl FnOnce()) -> f64 {
    vm::trace::enable();
    run();
    let trace = vm::trace::disable_and_take();
    let flat: Vec<(usize, usize, bool)> =
        trace.iter().map(|a| (a.addr, a.bytes, a.write)).collect();
    cachesim::replay_trace(CacheConfig::llc_8mb(), &flat).miss_rate_pct()
}

/// One Table 4 workload: parallel MKL, Mozart without pipelining
/// ("-pipe": one stage per call) and Mozart, each with its runtime
/// normalized to MKL's and its simulated LLC miss rate. Runtimes use
/// the full input at `threads`; the (slow) cache replay a quarter of
/// it (at least 2^18 elements) on one worker. Returns the section and
/// the "-pipe" and pipelined miss rates.
fn table4<I, B, M>(
    o: &BenchOpts,
    threads: usize,
    generate: impl Fn(usize) -> I,
    base: impl Fn(&I) -> B,
    mozart: impl Fn(&I, &MozartContext) -> Result<M>,
) -> (String, f64, f64) {
    let n = o.size(1 << 21);
    let n_sim = (n / 4).max(1 << 18);
    let (inp, sim) = (generate(n), generate(n_sim));
    let on = |pipeline: bool, workers: usize, i: &I| {
        let ctx = context(workers, |c| c.pipeline = pipeline);
        black_box(mozart(i, &ctx).expect("run"));
    };
    let t_mkl = time_min(o.reps, || {
        with_mkl_threads(threads, || _ = black_box(base(&inp)))
    });
    let secs = |p| time_min(o.reps, || on(p, threads, &inp)).as_secs_f64() / t_mkl.as_secs_f64();
    let miss = |p| llc_miss_pct(|| on(p, 1, &sim));
    let rows = [
        ("mkl", 1.0, llc_miss_pct(|| _ = base(&sim))),
        ("mozart_nopipe", secs(false), miss(false)),
        ("mozart", secs(true), miss(true)),
    ];
    let mut cells = vec![format!("\"n\": {n}, \"sim_n\": {n_sim}")];
    for (system, rt, miss) in rows {
        cells.push(format!(
            "\"{system}\": {{\"runtime_norm\": {rt:.4}, \"llc_miss_pct\": {miss:.4}}}"
        ));
    }
    let json = format!("{{{}}}", cells.join(", "));
    println!("  {json}");
    (json, rows[1].2, rows[2].2)
}

/// `[a, b, …]` with six decimals.
fn list(xs: &[f64]) -> String {
    let xs: Vec<String> = xs.iter().map(|x| format!("{x:.6}")).collect();
    format!("[{}]", xs.join(", "))
}

fn main() {
    let o = BenchOpts::from_env();
    let threads = *o.threads.last().unwrap_or(&16);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = format!(
        "{{\"scale\": {}, \"threads\": {:?}, \"reps\": {}, \"nproc\": {nproc}}}",
        o.scale, o.threads, o.reps
    );
    println!("paper figures: {env}");

    println!("\n=== Fig. 4: seconds per system at each thread count ===");
    let (mut fig4, mut last) = (Vec::new(), Vec::new());
    for (panel, name, run) in FIG4 {
        let c = run(&o);
        let (base, moz) = (c.base[c.base.len() - 1], c.mozart[c.mozart.len() - 1]);
        let vs_fused = c.fused.as_ref().map(|f| f[f.len() - 1] / moz);
        let fused = c.fused.as_deref().map_or("null".into(), list);
        let vs_fused = vs_fused.map_or("null".into(), |x| format!("{x:.4}"));
        fig4.push(format!(
            "{{\"panel\": \"{panel}\", \"name\": \"{name}\", \"base\": {}, \"fused\": {fused}, \
             \"mozart\": {}, \"speedup_vs_base\": {:.4}, \"speedup_vs_fused\": {vs_fused}}}",
            list(&c.base),
            list(&c.mozart),
            base / moz
        ));
        println!("  {}", fig4[fig4.len() - 1]);
        last.push((name, base, moz));
    }
    let losses: Vec<String> = losses(&last).iter().map(|l| format!("\"{l}\"")).collect();
    println!("  Mozart loses on: [{}]", losses.join(", "));

    let fig5 = fig5(&o, threads);

    println!("\n=== Fig. 6: batch size sweeps, {threads} threads ===");
    let n = o.size(1 << 21);
    let inp = bs::generate(n, 42);
    let (bs6, bs_within) = fig6(&o, threads, n as u64, 512, |c| bs::mkl_mozart(&inp, c));
    let n = o.size(700);
    let b = nb::generate(n, 5);
    let (nb6, nb_within) = fig6(&o, threads, n as u64, 1, |c| {
        nb::numpy_mozart(&b, 2, 0.01, c)
    });

    let (fig7, fig7_shape) = fig7(&o);

    println!("\n=== Table 4: black scholes, haversine; pipelining on and off ===");
    let generate = |n| bs::generate(n, 42);
    let (bs4, bs_nopipe, bs_pipe) = table4(&o, threads, generate, bs::mkl_base, bs::mkl_mozart);
    let generate = |n| hv::generate(n, 7);
    let (hv4, hv_nopipe, hv_pipe) = table4(&o, threads, generate, hv::mkl_base, hv::mkl_mozart);
    let pipe_ok = bs_nopipe >= bs_pipe && hv_nopipe >= hv_pipe;

    let json = format!(
        "{{\n  \"env\": {env},\n  \"fig4\": [\n    {}\n  ],\n  \"losses\": [{}],\n  \
         \"fig5\": {fig5},\n  \
         \"fig6\": {{\"threads\": {threads}, \"blackscholes\": {bs6}, \"nbody\": {nb6}}},\n  \
         \"fig7\": {fig7},\n  \
         \"table4\": {{\"threads\": {threads}, \"black_scholes\": {bs4}, \"haversine\": {hv4}}},\n  \
         \"shapes\": {{\"asserted\": {{\"table4_pipe_misses_ge_pipelined\": {pipe_ok}}}, \
         \"recorded\": {{\"fig6_blackscholes_within_10pct_of_best\": {bs_within}, \
         \"fig6_nbody_within_10pct_of_best\": {nb_within}, \
         \"fig7_speedup_non_increasing_with_intensity\": {fig7_shape}}}}}\n}}\n",
        fig4.join(",\n    "),
        losses.join(", "),
    );
    write_results("paper.json", &json);
    println!("\nwrote bench_results/paper.json");
    assert!(
        pipe_ok,
        "Table 4: a \"-pipe\" LLC miss rate is below the pipelined one \
         (black scholes {bs_nopipe:.2}% vs {bs_pipe:.2}%, haversine {hv_nopipe:.2}% vs {hv_pipe:.2}%)"
    );
}
