//! Direct calls into single layers, timed from outside: the planner with
//! a cold and a warm plan cache, the pool's dispatch round trip, a split
//! type's `split` and `merge` against a plain copy of the same bytes,
//! the protocol parser, the coalescer's concat and slice-back, and the
//! cache simulation. Each is what a later change to that layer should
//! move before any end-to-end number does.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mozart_core::{
    ArraySplit, Config, DataValue, MozartContext, PlanCache, PoolHandle, SharedVec, Splitter,
    VecValue,
};

use crate::contract::WORKERS;
use crate::spans::SpanLog;
use crate::stats::median;

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Evaluations per side of [`planner_miss_vs_hit`]. The large workloads
/// pay a full evaluation for each, so this stays small.
const PLANNER_PROBE_EVALS: usize = 3;

/// Median planner time of one evaluation of `op`'s graph, in
/// microseconds, with a fresh `PlanCache` (miss: split-type inference
/// and stage grouping run) and with the cache that evaluation just
/// filled (hit: the skeleton is replayed and re-bound).
pub fn planner_miss_vs_hit(
    op: &impl Fn(&MozartContext) -> mozart_core::Result<()>,
    log: &mut SpanLog,
) -> Result<(f64, f64), String> {
    log.span("probe.planner", |_| {
        let pool = PoolHandle::new(WORKERS - 1);
        let (mut miss, mut hit) = (Vec::new(), Vec::new());
        for _ in 0..PLANNER_PROBE_EVALS {
            let cache = Arc::new(PlanCache::new(64));
            for side in [&mut miss, &mut hit] {
                let ctx = MozartContext::new(Config::with_workers(WORKERS));
                ctx.attach_pool(pool.clone())
                    .attach_plan_cache(cache.clone());
                op(&ctx).map_err(|e| err("planner probe", e))?;
                side.push(ctx.stats().planner.as_secs_f64() * 1e6);
            }
        }
        Ok((median(&miss), median(&hit)))
    })
}

/// Round trips timed by [`pool_roundtrip_us`].
const ROUNDTRIP_EVALS: usize = 2000;

/// Median microseconds to capture and evaluate a one-call pipeline over
/// `WORKERS` elements cut into one-element batches: nothing to compute,
/// so what is left is capture, planning from cache, waking the pool,
/// claiming a batch each, and parking again.
pub fn pool_roundtrip_us(log: &mut SpanLog) -> Result<f64, String> {
    log.span("probe.pool_roundtrip", |_| {
        workloads::register_all_defaults();
        let mut cfg = Config::with_workers(WORKERS);
        cfg.batch_override = Some(1);
        let pool = PoolHandle::new(WORKERS - 1);
        let cache = Arc::new(PlanCache::new(8));
        let a = SharedVec::from_vec(vec![2.0; WORKERS]);
        let out: SharedVec<f64> = SharedVec::zeros(WORKERS);
        let mut us = Vec::with_capacity(ROUNDTRIP_EVALS);
        for _ in 0..ROUNDTRIP_EVALS {
            let ctx = MozartContext::new(cfg.clone());
            ctx.attach_pool(pool.clone())
                .attach_plan_cache(cache.clone());
            let t0 = Instant::now();
            sa_vectormath::vd_sqr(&ctx, WORKERS, &a, &out).map_err(|e| err("pool probe", e))?;
            ctx.evaluate().map_err(|e| err("pool probe", e))?;
            us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        if pool.stats().jobs == 0 {
            return Err("pool probe: the stage ran inline, no pool dispatch was timed".into());
        }
        Ok(median(&us))
    })
}

/// A value, the split type its pipeline splits it with, and the bytes
/// one full split or merge of it moves.
pub struct SplitSubject {
    pub splitter: Arc<dyn Splitter>,
    pub value: DataValue,
    pub bytes: usize,
}

/// An `ArraySplit` subject of `n` doubles.
pub fn array_subject(n: usize) -> SplitSubject {
    SplitSubject {
        splitter: Arc::new(ArraySplit),
        value: DataValue::new(VecValue(SharedVec::from_vec(vec![1.0; n]))),
        bytes: n * 8,
    }
}

pub struct SplitProbe {
    /// Pieces one full split of the value produced.
    pub pieces: usize,
    pub ns_per_piece: f64,
    pub merge_gbps: f64,
    pub copy_gbps: f64,
}

/// Repetitions of the split, merge and copy loops; medians are reported.
const SPLIT_PROBE_REPS: usize = 7;

/// `Splitter::split` over the whole value in L2-sized pieces (the batch
/// heuristic's own size), `Splitter::merge` of those pieces, and a
/// `copy_from_slice` of the same byte count as the yardstick. A split
/// type whose pieces are views reports a merge rate far above the copy
/// rate: nothing is copied, which is the point of such a type.
pub fn split_probe(subject: &SplitSubject, log: &mut SpanLog) -> Result<SplitProbe, String> {
    log.span("probe.split", |_| {
        let sp = &subject.splitter;
        let params = sp
            .default_params(&subject.value)
            .map_err(|e| err("split probe", e))?;
        let info = sp
            .info(&subject.value, &params)
            .map_err(|e| err("split probe", e))?;
        let total = info.total_elements;
        let batch = Config::default().batch_elements(info.elem_size_bytes, total);

        let (mut split_ns, mut merge_s) = (Vec::new(), Vec::new());
        let mut pieces_per_split = 0;
        for _ in 0..SPLIT_PROBE_REPS {
            let mut pieces = Vec::new();
            let t0 = Instant::now();
            let mut at = 0;
            while at < total {
                let end = (at + batch).min(total);
                match sp
                    .split(&subject.value, at..end, &params)
                    .map_err(|e| err("split probe", e))?
                {
                    Some(p) => pieces.push(p),
                    None => break,
                }
                at = end;
            }
            pieces_per_split = pieces.len();
            split_ns.push(t0.elapsed().as_secs_f64() * 1e9 / pieces.len().max(1) as f64);
            let t0 = Instant::now();
            black_box(
                sp.merge(pieces, &params, total)
                    .map_err(|e| err("split probe", e))?,
            );
            merge_s.push(t0.elapsed().as_secs_f64());
        }

        let src = vec![1u8; subject.bytes];
        let mut dst = vec![0u8; subject.bytes];
        let mut copy_s = Vec::new();
        for _ in 0..SPLIT_PROBE_REPS {
            let t0 = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            copy_s.push(t0.elapsed().as_secs_f64());
        }
        let gbps = |s: f64| subject.bytes as f64 / s / 1e9;
        Ok(SplitProbe {
            pieces: pieces_per_split,
            ns_per_piece: median(&split_ns),
            merge_gbps: gbps(median(&merge_s)),
            copy_gbps: gbps(median(&copy_s)),
        })
    })
}

/// Nanoseconds per line of `protocol::parse_line` over `lines`.
pub fn parse_ns_per_line(lines: &[String], log: &mut SpanLog) -> f64 {
    const PASSES: usize = 2000;
    log.span("probe.protocol_parse", |_| {
        let t0 = Instant::now();
        for _ in 0..PASSES {
            for line in lines {
                black_box(mozart_serve::protocol::parse_line(black_box(line)).is_ok());
            }
        }
        t0.elapsed().as_secs_f64() * 1e9 / (PASSES * lines.len().max(1)) as f64
    })
}

/// Median microseconds for the coalescer's data path on a full batch:
/// `Concat::concat` of eight 16384-element vectors plus a `slice_back`
/// of each member.
pub fn concat_slice_us(log: &mut SpanLog) -> Result<f64, String> {
    const MEMBERS: usize = mozart_serve::MAX_COALESCE;
    const N: usize = 16384;
    const REPS: usize = 200;
    log.span("probe.concat", |_| {
        let concat = Splitter::concat(&ArraySplit)
            .ok_or_else(|| "concat probe: ArraySplit lost its Concat capability".to_string())?;
        let values: Vec<DataValue> = (0..MEMBERS)
            .map(|i| DataValue::new(VecValue(SharedVec::from_vec(vec![i as f64; N]))))
            .collect();
        let mut us = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let t0 = Instant::now();
            let (all, offsets) = concat.concat(&values).map_err(|e| err("concat probe", e))?;
            for off in offsets {
                black_box(
                    concat
                        .slice_back(&all, off, N as u64)
                        .map_err(|e| err("concat probe", e))?,
                );
            }
            us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        Ok(median(&us))
    })
}

/// Simulated last-level-cache miss rates, in percent, of Black Scholes
/// at n = 2^18 in the base library's order (each operator streams every
/// array) and in Mozart's order (all operators per cache-sized batch):
/// the kernels' operand streams replayed through an 8 MiB cache model.
/// Exact and repeatable; not a hardware counter.
pub fn simulated_llc_miss_pct(seed: u64, log: &mut SpanLog) -> Result<(f64, f64), String> {
    use workloads::black_scholes as bs;
    let miss_pct = |run: &dyn Fn() -> Result<(), String>| -> Result<f64, String> {
        vectormath::trace::enable();
        let ran = run();
        let trace = vectormath::trace::disable_and_take();
        ran?;
        let flat: Vec<(usize, usize, bool)> =
            trace.iter().map(|a| (a.addr, a.bytes, a.write)).collect();
        Ok(cachesim::replay_trace(cachesim::CacheConfig::llc_8mb(), &flat).miss_rate_pct())
    };
    log.span("probe.cachesim", |_| {
        let inp = bs::generate(1 << 18, seed);
        let base = miss_pct(&|| {
            black_box(bs::mkl_base(&inp));
            Ok(())
        })?;
        let mozart = miss_pct(&|| {
            let ctx = workloads::mozart_context(1);
            bs::mkl_mozart(&inp, &ctx)
                .map(|_| ())
                .map_err(|e| err("cachesim probe", e))
        })?;
        Ok((base, mozart))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn silent() -> SpanLog {
        SpanLog::new(Instant::now(), 0, false)
    }

    #[test]
    fn split_probe_covers_the_whole_value() {
        let probe = split_probe(&array_subject(1 << 16), &mut silent()).unwrap();
        assert!(probe.pieces >= 1);
        assert!(probe.ns_per_piece > 0.0 && probe.merge_gbps > 0.0 && probe.copy_gbps > 0.0);
    }

    #[test]
    fn planner_probe_sees_the_cache() {
        let op = |ctx: &MozartContext| {
            let inp = workloads::black_scholes::generate(512, 3);
            workloads::black_scholes::mkl_mozart(&inp, ctx).map(|_| ())
        };
        workloads::register_all_defaults();
        let (miss, hit) = planner_miss_vs_hit(&op, &mut silent()).unwrap();
        assert!(miss > 0.0 && hit > 0.0);
    }
}
