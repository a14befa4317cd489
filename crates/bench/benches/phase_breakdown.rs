//! Phase breakdown with placement merges on vs off: split/task/merge
//! fractions for the Black Scholes (MKL) and Nashville (ImageMagick)
//! workloads under `Config::placement_merge = true` (preallocated
//! outputs, workers write pieces in place) and `false` (the historic
//! collect-then-concat ablation).
//!
//! Nashville is the workload the fast path targets — its split/merge
//! used to copy every pixel twice — so the bench *asserts* that its
//! merge fraction with placement on is at least 2x below the
//! placement-off run, and that both configurations produce identical
//! workload outputs (summary checksums against the copying baseline).
//!
//! A third pair runs Nashville with per-call stage evaluation
//! (`pipeline = false`) under `Config::split_form` on vs off: with the
//! ablation on, stage-boundary intermediates cross in split form
//! instead of merging and re-splitting, so the bench asserts the
//! combined split+merge wall share drops measurably with bit-identical
//! checksums and a nonzero `split_form_handoffs` count.
//!
//! A fourth pair runs Nashville with `Config::verify_plans` on vs off:
//! the static plan verifier must prove every stage (nonzero
//! `plans_verified`, zero with it off), must not perturb outputs
//! (bit-identical checksums), and must stay within 1.05x of the
//! unverified wall time.
//!
//! A fifth pair runs Crime Index with every intermediate handle held
//! across the one read of the scalar total vs dropped before it:
//! demand-driven materialization must make holding a handle nearly
//! free (live-but-undemanded outputs stay pieces, nothing is merged),
//! so the bench asserts equal checksums, `deferred_outputs > 0` only in
//! the held arm, and a held/dropped wall ratio of at most 1.15.
//!
//! Emits `bench_results/BENCH_phases.json`. Set
//! `MOZART_TRACE_EXPORT=<file.json>` to additionally record every
//! evaluation with [`mozart_core::trace`] and write the spans as Chrome
//! trace-event JSON (open in `chrome://tracing` or Perfetto) to
//! `bench_results/<file.json>` — one row per worker thread, one slice
//! per planner/split/task/merge span.

use std::sync::Arc;

use mozart_bench::{write_results, BenchOpts};
use mozart_core::trace::TraceRecorder;
use mozart_core::{chrome_trace_json, Config, PhaseStats};

struct Measured {
    stats: PhaseStats,
    seconds: f64,
    checksum: f64,
}

/// Phase fractions of the accounted total.
fn fractions(p: &PhaseStats) -> (f64, f64, f64) {
    let t = p.total().as_secs_f64();
    if t == 0.0 {
        return (0.0, 0.0, 0.0);
    }
    (
        p.split.as_secs_f64() / t,
        p.task.as_secs_f64() / t,
        p.merge.as_secs_f64() / t,
    )
}

fn run_workload(
    threads: usize,
    evals: usize,
    tracing: Option<Arc<TraceRecorder>>,
    configure: impl Fn(&mut Config),
    mut f: impl FnMut(&mozart_core::MozartContext) -> f64,
) -> Measured {
    let mut cfg = Config::with_workers(threads);
    configure(&mut cfg);
    cfg.tracing = tracing;
    // One context per evaluation — the serving model, and the honest
    // measurement: a context's dataflow graph retains every value it
    // ever produced, so a long-lived bench context would pin all prior
    // evals' outputs in memory and keep the allocator permanently
    // cold. A shared pool keeps worker threads persistent across the
    // contexts, like `PipelineService` does.
    let pool = mozart_core::PoolHandle::new(threads.saturating_sub(1));
    let run_once = |f: &mut dyn FnMut(&mozart_core::MozartContext) -> f64| {
        let ctx = workloads::mozart_context_with(cfg.clone());
        ctx.attach_pool(pool.clone());
        let checksum = f(&ctx);
        (checksum, ctx.take_stats())
    };
    // Two warm-up evaluations (fault pages, let the allocator adapt
    // its mmap threshold — glibc only raises it after freeing an
    // mmap'd block, and reuse needs one more cycle), then accumulate
    // stats over `evals` timed evaluations so short smoke runs still
    // measure microseconds-scale merges reliably.
    let (mut checksum, _) = run_once(&mut f);
    let _ = run_once(&mut f);
    let mut stats = PhaseStats::default();
    let t0 = std::time::Instant::now();
    for _ in 0..evals {
        let (c, s) = run_once(&mut f);
        checksum = c;
        stats.accumulate(&s);
    }
    let seconds = t0.elapsed().as_secs_f64() / evals as f64;
    Measured {
        stats,
        seconds,
        checksum,
    }
}

/// Combined split + merge share of the accounted total — the wall
/// share the split-form hand-off targets (it removes both the merge
/// that produced the intermediate and the split that re-cut it).
fn split_merge_share(p: &PhaseStats) -> f64 {
    let (split, _, merge) = fractions(p);
    split + merge
}

fn json_entry(m: &Measured, matches: bool) -> String {
    let (split, task, merge) = fractions(&m.stats);
    format!(
        "{{ \"split\": {split:.4}, \"task\": {task:.4}, \"merge\": {merge:.4}, \
         \"seconds\": {:.6}, \"placement_writes\": {}, \
         \"split_form_handoffs\": {}, \"split_form_reslices\": {}, \
         \"deferred_outputs\": {}, \"checksum_matches_baseline\": {matches} }}",
        m.seconds,
        m.stats.placement_writes,
        m.stats.split_form_handoffs,
        m.stats.split_form_reslices,
        m.stats.deferred_outputs
    )
}

fn print_pair(name: &str, labels: [&str; 2], on: &Measured, off: &Measured) {
    println!("\n=== phase_breakdown: {name} ===");
    for (label, m) in [(labels[0], on), (labels[1], off)] {
        let (split, task, merge) = fractions(&m.stats);
        println!(
            "{label}: split {:5.1}%  task {:5.1}%  merge {:5.1}%  ({:.4}s/eval, \
             {} placement writes, {} split-form hand-offs, {} deferred outputs)",
            split * 100.0,
            task * 100.0,
            merge * 100.0,
            m.seconds,
            m.stats.placement_writes,
            m.stats.split_form_handoffs,
            m.stats.deferred_outputs
        );
    }
    let (_, _, merge_on) = fractions(&on.stats);
    let (_, _, merge_off) = fractions(&off.stats);
    if merge_on > 0.0 {
        println!(
            "merge fraction ratio (off/on): {:.1}x",
            merge_off / merge_on
        );
    }
}

fn main() {
    let opts = BenchOpts::from_env();
    let threads = *opts.threads.last().unwrap_or(&16);
    let evals = opts.reps.max(2) * 3;
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-5 * a.abs().max(b.abs()).max(1.0);
    // Optional Chrome trace export: one recorder across every run; the
    // ring keeps the most recent evaluations' spans.
    let trace_export = std::env::var("MOZART_TRACE_EXPORT").ok();
    let recorder = trace_export.as_ref().map(|_| TraceRecorder::new());

    // ---- Black Scholes (MKL): outputs are mut-arg SliceViews that
    // already write in place, so placement changes little — reported
    // as the control.
    let (bs_on, bs_off, bs_base) = {
        use workloads::black_scholes as bs;
        let n = opts.size(1 << 19);
        let inp = bs::generate(n, 42);
        let base = bs::mkl_base(&inp).call_sum;
        let run = |placement: bool| {
            run_workload(
                threads,
                evals,
                recorder.clone(),
                |cfg| cfg.placement_merge = placement,
                |ctx| bs::mkl_mozart(&inp, ctx).expect("run").call_sum,
            )
        };
        (run(true), run(false), base)
    };

    // ---- Nashville (ImageMagick): concat-shaped image output, the
    // placement target. A sub-heuristic batch override keeps dozens of
    // batches in flight even at smoke scales, so the merge phase is
    // actually exercised.
    use workloads::images as im;
    let (w, h) = (opts.size(1600), opts.size(1200));
    let na_img = im::generate(w, h, 3);
    let na_base = im::nashville_base(&na_img).mean;
    let (na_on, na_off) = {
        let run = |placement: bool| {
            run_workload(
                threads,
                evals,
                recorder.clone(),
                |cfg| {
                    cfg.placement_merge = placement;
                    cfg.batch_override = Some(32);
                },
                |ctx| im::nashville_mozart(&na_img, ctx).expect("run").mean,
            )
        };
        (run(true), run(false))
    };

    // ---- Nashville split-form ablation: with per-call stage
    // evaluation (`pipeline = false`), every stage boundary used to
    // merge the intermediate image and re-split it in the next stage;
    // split-form hand-offs elide that round trip, so the combined
    // split+merge wall share must drop while the output stays
    // bit-identical.
    let (sf_on, sf_off) = {
        let run = |split_form: bool| {
            run_workload(
                threads,
                evals,
                recorder.clone(),
                |cfg| {
                    cfg.pipeline = false;
                    cfg.split_form = split_form;
                    cfg.batch_override = Some(32);
                },
                |ctx| im::nashville_mozart(&na_img, ctx).expect("run").mean,
            )
        };
        (run(true), run(false))
    };

    // ---- Nashville verify ablation: the static plan verifier
    // (`verify_plans`) runs once per planned/replayed stage and must be
    // invisible — same bytes out, within 1.05x of the unverified wall.
    let (vp_on, vp_off) = {
        let run = |verify: bool| {
            run_workload(
                threads,
                evals,
                recorder.clone(),
                |cfg| {
                    cfg.placement_merge = true;
                    cfg.batch_override = Some(32);
                    cfg.verify_plans = verify;
                },
                |ctx| im::nashville_mozart(&na_img, ctx).expect("run").mean,
            )
        };
        (run(true), run(false))
    };

    // ---- Crime Index handle ablation: the application holds eight
    // intermediate handles across its one read (`mozart`) or drops them
    // first (`mozart_handles_dropped`). Held handles used to force
    // eight merges nobody read; deferred outputs make them near free.
    let (ci_held, ci_dropped, ci_base) = {
        use workloads::crime_index as ci;
        let df = ci::generate(opts.size(1 << 20), 7);
        let base = ci::base(&df).index_sum;
        let run = |held: bool| {
            run_workload(
                threads,
                evals,
                recorder.clone(),
                |_| {},
                |ctx| {
                    let run = if held {
                        ci::mozart
                    } else {
                        ci::mozart_handles_dropped
                    };
                    run(&df, ctx).expect("run").index_sum
                },
            )
        };
        (run(true), run(false), base)
    };

    print_pair(
        "black_scholes",
        ["placement on ", "placement off"],
        &bs_on,
        &bs_off,
    );
    print_pair(
        "nashville",
        ["placement on ", "placement off"],
        &na_on,
        &na_off,
    );
    print_pair(
        "nashville (staged, split-form ablation)",
        ["split-form on ", "split-form off"],
        &sf_on,
        &sf_off,
    );
    println!(
        "split+merge share: split-form on {:.2}% vs off {:.2}%",
        split_merge_share(&sf_on.stats) * 100.0,
        split_merge_share(&sf_off.stats) * 100.0
    );
    print_pair(
        "nashville (plan-verify ablation)",
        ["verify on ", "verify off"],
        &vp_on,
        &vp_off,
    );
    println!(
        "plans verified: on {} vs off {}; wall ratio (on/off): {:.3}x",
        vp_on.stats.plans_verified,
        vp_off.stats.plans_verified,
        vp_on.seconds / vp_off.seconds.max(f64::EPSILON)
    );

    print_pair(
        "crime_index (handle ablation)",
        ["handles held   ", "handles dropped"],
        &ci_held,
        &ci_dropped,
    );
    let ci_ratio = ci_held.seconds / ci_dropped.seconds.max(f64::EPSILON);
    println!("wall ratio (held/dropped): {ci_ratio:.3}x");

    let bs_match = close(bs_on.checksum, bs_base) && close(bs_off.checksum, bs_base);
    let na_match = close(na_on.checksum, na_base) && close(na_off.checksum, na_base);
    // The split-form arms must be *bit*-identical to each other — the
    // hand-off re-slices exactly the bytes the classic path merges.
    let sf_match = sf_on.checksum.to_bits() == sf_off.checksum.to_bits()
        && close(sf_on.checksum, na_base)
        && close(sf_off.checksum, na_base);
    // The verifier only reads the plan; its arms must be bit-identical.
    let vp_match =
        vp_on.checksum.to_bits() == vp_off.checksum.to_bits() && close(vp_on.checksum, na_base);

    // The reduction folds per-worker partials in claim order, so the two
    // arms agree to the last ulps, not bits (see `MergeStrategy::Commutative`).
    let ci_match = close(ci_held.checksum, ci_dropped.checksum) && close(ci_held.checksum, ci_base);

    let mut json = String::from("{\n  \"figure\": \"phase_breakdown\",\n");
    json.push_str(&format!(
        "  \"threads\": {threads},\n  \"evals\": {evals},\n"
    ));
    json.push_str("  \"workloads\": {\n");
    json.push_str(&format!(
        "    \"black_scholes\": {{ \"placement_on\": {}, \"placement_off\": {} }},\n",
        json_entry(&bs_on, bs_match),
        json_entry(&bs_off, bs_match)
    ));
    json.push_str(&format!(
        "    \"nashville\": {{ \"placement_on\": {}, \"placement_off\": {} }},\n",
        json_entry(&na_on, na_match),
        json_entry(&na_off, na_match)
    ));
    json.push_str(&format!(
        "    \"nashville_staged\": {{ \"split_form_on\": {}, \"split_form_off\": {} }},\n",
        json_entry(&sf_on, sf_match),
        json_entry(&sf_off, sf_match)
    ));
    json.push_str(&format!(
        "    \"nashville_verify\": {{ \"verify_on\": {}, \"verify_off\": {}, \
         \"plans_verified\": {}, \"wall_ratio\": {:.4} }},\n",
        json_entry(&vp_on, vp_match),
        json_entry(&vp_off, vp_match),
        vp_on.stats.plans_verified,
        vp_on.seconds / vp_off.seconds.max(f64::EPSILON)
    ));
    json.push_str(&format!(
        "    \"crime_index_handles\": {{ \"held\": {}, \"dropped\": {}, \
         \"wall_ratio\": {ci_ratio:.4} }}\n",
        json_entry(&ci_held, ci_match),
        json_entry(&ci_dropped, ci_match),
    ));
    let na_merge_on = na_on.stats.merge_fraction();
    let na_merge_off = na_off.stats.merge_fraction();
    let sm_on = split_merge_share(&sf_on.stats);
    let sm_off = split_merge_share(&sf_off.stats);
    json.push_str(&format!(
        "  }},\n  \"nashville_merge_fraction_ratio\": {:.4},\n",
        if na_merge_on > 0.0 {
            na_merge_off / na_merge_on
        } else {
            f64::INFINITY
        }
    ));
    json.push_str(&format!(
        "  \"nashville_split_merge_share\": {{ \"split_form_on\": {sm_on:.4}, \
         \"split_form_off\": {sm_off:.4} }}\n}}\n"
    ));
    write_results("BENCH_phases.json", &json);

    if let (Some(name), Some(rec)) = (&trace_export, &recorder) {
        let spans = rec.all_spans();
        write_results(name, &chrome_trace_json(&spans));
        println!(
            "wrote bench_results/{name}: {} spans ({} dropped by ring overwrite)",
            spans.len(),
            rec.dropped()
        );
    }

    // CI gates: the fast path must be invisible in outputs and must
    // actually shrink Nashville's merge share.
    assert!(
        bs_match && na_match,
        "workload checksums diverged from the copying baseline: \
         bs {} / {} vs {bs_base}; nashville {} / {} vs {na_base}",
        bs_on.checksum,
        bs_off.checksum,
        na_on.checksum,
        na_off.checksum
    );
    assert!(
        na_on.stats.placement_writes > 0,
        "nashville never took the placement path: {:?}",
        na_on.stats
    );
    assert!(
        na_merge_on * 2.0 <= na_merge_off,
        "nashville merge fraction with placement on ({:.4}) must be at \
         least 2x below placement off ({:.4})",
        na_merge_on,
        na_merge_off
    );
    // Split-form ablation gates: the hand-off must fire, the classic
    // arm must not, outputs must be bit-identical, and the elision must
    // visibly shrink the split+merge wall share.
    assert!(
        sf_match,
        "split-form ablation checksums diverged: on {} vs off {} (baseline {na_base})",
        sf_on.checksum, sf_off.checksum
    );
    assert!(
        sf_on.stats.split_form_handoffs > 0,
        "staged nashville never handed a value across in split form: {:?}",
        sf_on.stats
    );
    assert_eq!(
        sf_off.stats.split_form_handoffs, 0,
        "split-form hand-offs fired with the ablation off: {:?}",
        sf_off.stats
    );
    assert!(
        sm_on < sm_off * 0.9,
        "split-form on must drop nashville's split+merge wall share \
         measurably below the ablation ({:.4} vs {:.4})",
        sm_on,
        sm_off
    );
    // Plan-verify gates: the verifier must actually run (and only when
    // asked), change nothing, and cost at most 5% wall (plus a 2ms
    // absolute allowance so micro smoke runs don't gate on noise).
    assert!(
        vp_match,
        "verify ablation checksums diverged: on {} vs off {} (baseline {na_base})",
        vp_on.checksum, vp_off.checksum
    );
    assert!(
        vp_on.stats.plans_verified > 0,
        "verify_plans on but no stage plan was verified: {:?}",
        vp_on.stats
    );
    assert_eq!(
        vp_off.stats.plans_verified, 0,
        "verify_plans off but stages were verified anyway: {:?}",
        vp_off.stats
    );
    assert!(
        vp_on.seconds <= vp_off.seconds * 1.05 + 2e-3,
        "plan verification overhead exceeds 1.05x: {:.4}s/eval verified \
         vs {:.4}s/eval unverified",
        vp_on.seconds,
        vp_off.seconds
    );
    // Handle-ablation gates: holding handles must defer (not merge) the
    // intermediates, change nothing, and cost at most 15% wall (plus
    // the same 2ms smoke-run allowance).
    assert!(
        ci_match,
        "crime_index handle ablation checksums diverged: held {} vs dropped {} (baseline {ci_base})",
        ci_held.checksum, ci_dropped.checksum
    );
    assert!(
        ci_held.stats.deferred_outputs > 0 && ci_dropped.stats.deferred_outputs == 0,
        "only held handles defer outputs: held {:?} vs dropped {:?}",
        ci_held.stats,
        ci_dropped.stats
    );
    assert_eq!(
        ci_held.stats.bytes_merged, ci_dropped.stats.bytes_merged,
        "held handles must not merge anything the dropped arm does not"
    );
    assert!(
        ci_held.seconds <= ci_dropped.seconds * 1.15 + 2e-3,
        "holding handles costs more than 1.15x: {:.4}s/eval held vs {:.4}s/eval dropped",
        ci_held.seconds,
        ci_dropped.seconds
    );
    println!("\nchecksums match the copying baseline; nashville merge fraction");
    println!(
        "placement on {:.2}% vs off {:.2}% — gate passed.",
        na_merge_on * 100.0,
        na_merge_off * 100.0
    );
    println!(
        "split-form hand-offs elided {} merges/eval-run; split+merge share \
         {:.2}% vs {:.2}% — gate passed.",
        sf_on.stats.split_form_handoffs,
        sm_on * 100.0,
        sm_off * 100.0
    );
    println!(
        "crime_index: {} outputs/eval-run deferred instead of merged; held handles \
         cost {ci_ratio:.3}x dropped (≤1.15x) — gate passed.",
        ci_held.stats.deferred_outputs
    );
    println!(
        "plan verification: {} plans proved at {:.3}x unverified wall \
         (≤1.05x) — gate passed.",
        vp_on.stats.plans_verified,
        vp_on.seconds / vp_off.seconds.max(f64::EPSILON)
    );
}
