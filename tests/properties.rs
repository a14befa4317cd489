//! Property-based tests of the SA correctness condition (§3.4) and the
//! splitting API invariants:
//!
//! * split → merge round-trips the value for every split type;
//! * split → concat round-trips the value (and its offsets) for every
//!   registered splitter exposing the v2 `Concat` capability — the
//!   inverse-of-split law the serving layer's generic cross-request
//!   coalescing relies on;
//! * the placement law for every row-band split type (`NdSplit` rank 1
//!   and 2, `ImageSplit`, `RowSplit` over frames and columns): pieces
//!   placed at shuffled offsets equal the merge, a truncated prefix
//!   equals the merge of the prefix, `reuse` takes only an exclusive
//!   spare of the right layout, and a misfit piece is `Error::Merge`;
//! * the fold law for every merge-only split type (the NumPy, MKL and
//!   Pandas reductions and `GroupSplit`): merging all partials equals
//!   merging the merges of a prefix and the rest, bit for bit, and in
//!   any order for the commutative ones; a piece of another type is
//!   `Error::Merge`;
//! * `F(a, b, ...) = Merge(F(a1, b1, ...), F(a2, b2, ...), ...)` for
//!   annotated functions under arbitrary split points;
//! * Mozart execution equals eager library execution for arbitrary
//!   operator sequences, worker counts, and batch sizes;
//! * demand-driven materialization (ISSUE 12): for generated pipelines
//!   over the dataframe, ndarray and image wrappers, the order handles
//!   are read in is invisible in the values read.

use proptest::prelude::*;

use dataframe::{Column, DataFrame};
use mozart_repro::core::prelude::*;
use mozart_repro::core::{Config, MozartContext};

fn ctx(workers: usize, batch: u64) -> MozartContext {
    mozart_repro::workloads::register_all_defaults();
    let mut cfg = Config::with_workers(workers);
    cfg.batch_override = Some(batch);
    MozartContext::new(cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ArraySplit: splitting at arbitrary points and merging recovers
    /// the buffer (in-place views of one parent).
    #[test]
    fn array_split_roundtrip(data in prop::collection::vec(-1e6f64..1e6, 1..200), cut in 0usize..200) {
        let n = data.len();
        let cut = cut.min(n) as u64;
        let splitter = ArraySplit;
        let buf = SharedVec::from_vec(data.clone());
        let dv = DataValue::new(VecValue(buf));
        let params = vec![n as i64];
        let mut pieces = Vec::new();
        if cut > 0 {
            pieces.push(splitter.split(&dv, 0..cut, &params).unwrap().unwrap());
        }
        if (cut as usize) < n {
            pieces.push(splitter.split(&dv, cut..n as u64, &params).unwrap().unwrap());
        }
        let merged = splitter.merge(pieces, &params, n as u64).unwrap();
        let v = merged.downcast_ref::<VecValue>().unwrap();
        prop_assert_eq!(v.0.to_vec(), data);
    }

    /// RowSplit over DataFrames: slice + concat is the identity.
    #[test]
    fn row_split_roundtrip(vals in prop::collection::vec(-1e3f64..1e3, 1..120), cuts in prop::collection::vec(0usize..120, 0..4)) {
        let n = vals.len();
        let df = DataFrame::from_cols(vec![
            ("id", Column::from_i64((0..n as i64).collect())),
            ("v", Column::from_f64(vals.clone())),
        ]);
        let splitter = sa_dataframe::RowSplit;
        let dv = sa_dataframe::dfv(&df);
        let params = vec![n as i64];
        let mut points: Vec<usize> = cuts.into_iter().map(|c| c % (n + 1)).collect();
        points.push(0);
        points.push(n);
        points.sort_unstable();
        points.dedup();
        let mut pieces = Vec::new();
        for w in points.windows(2) {
            if w[0] < w[1] {
                pieces.push(splitter.split(&dv, w[0] as u64..w[1] as u64, &params).unwrap().unwrap());
            }
        }
        let merged = splitter.merge(pieces, &params, n as u64).unwrap();
        let out = merged.downcast_ref::<sa_dataframe::DfValue>().unwrap();
        prop_assert_eq!(out.0.col("v").f64s(), df.col("v").f64s());
        prop_assert_eq!(out.0.col("id").i64s(), df.col("id").i64s());
    }

    /// The §3.4 condition for an elementwise kernel: applying vd_mul to
    /// two split halves equals applying it whole.
    #[test]
    fn split_condition_vd_mul(a in prop::collection::vec(-1e3f64..1e3, 2..150), cut_frac in 0.0f64..1.0) {
        let n = a.len();
        let cut = ((n as f64 * cut_frac) as usize).clamp(1, n - 1);
        let b: Vec<f64> = a.iter().map(|x| x * 0.5 + 1.0).collect();
        let mut whole = vec![0.0; n];
        vectormath::vd_mul(&a, &b, &mut whole);
        let mut left = vec![0.0; cut];
        let mut right = vec![0.0; n - cut];
        vectormath::vd_mul(&a[..cut], &b[..cut], &mut left);
        vectormath::vd_mul(&a[cut..], &b[cut..], &mut right);
        left.extend(right);
        prop_assert_eq!(whole, left);
    }

    /// The §3.4 condition for a data-dependent operator: filtering row
    /// chunks and concatenating equals filtering the whole frame.
    #[test]
    fn split_condition_filter(vals in prop::collection::vec(-100i64..100, 1..150), cut in 0usize..150) {
        let n = vals.len();
        let cut = cut.min(n);
        let df = DataFrame::from_cols(vec![("v", Column::from_i64(vals))]);
        let mask = dataframe::ops::gt_scalar(&df.col("v").to_f64(), 0.0);
        let whole = df.filter(&mask);
        let parts = [df.slice_rows(0, cut), df.slice_rows(cut, n)];
        let merged = DataFrame::concat(&parts.iter().map(|p| {
            let m = dataframe::ops::gt_scalar(&p.col("v").to_f64(), 0.0);
            p.filter(&m)
        }).collect::<Vec<_>>());
        prop_assert_eq!(whole.col("v").i64s(), merged.col("v").i64s());
    }

    /// Mozart execution of a random in-place vector-op program equals
    /// eager execution, for arbitrary worker counts and batch sizes —
    /// cold, and then warm on the plan cache the cold run filled.
    #[test]
    fn executor_equals_eager_for_random_programs(
        data in prop::collection::vec(0.1f64..10.0, 8..300),
        ops in prop::collection::vec(0u8..5, 1..12),
        workers in 1usize..6,
        batch in 1u64..64,
    ) {
        let n = data.len();
        // Eager reference.
        let mut eager = data.clone();
        for &op in &ops {
            apply_eager(op, &mut eager);
        }
        // Mozart, on a fresh context per run and one shared cache.
        let cache = std::sync::Arc::new(PlanCache::new(8));
        let run = || {
            let c = ctx(workers, batch);
            c.attach_plan_cache(cache.clone());
            let buf = SharedVec::from_vec(data.clone());
            for &op in &ops {
                apply_mozart(op, &c, n, &buf).unwrap();
            }
            (buf.to_vec(), c.stats())
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (cold, cold_stats) = run();
        prop_assert_eq!(bits(&cold), bits(&eager), "the cold run");
        // The whole program must have pipelined into one stage.
        prop_assert_eq!(cold_stats.stages, 1);
        let (warm, warm_stats) = run();
        prop_assert_eq!(bits(&warm), bits(&eager), "the warm run");
        prop_assert_eq!(
            (warm_stats.stages, warm_stats.batches),
            (cold_stats.stages, cold_stats.batches)
        );
        prop_assert_eq!(cache.stats().hits, 1);
    }

    /// Reductions agree with serial sums under arbitrary batch sizes.
    #[test]
    fn reduction_equals_serial(data in prop::collection::vec(-1e3f64..1e3, 1..400), workers in 1usize..5, batch in 1u64..128) {
        let c = ctx(workers, batch);
        let x = SharedVec::from_vec(data.clone());
        let y = SharedVec::from_vec(vec![2.0; data.len()]);
        let fut = sa_vectormath::ddot(&c, &x, &y).unwrap();
        let got = fut.get().unwrap().downcast_ref::<FloatValue>().unwrap().0;
        let expect: f64 = data.iter().map(|v| v * 2.0).sum();
        prop_assert!((got - expect).abs() <= 1e-9 * expect.abs().max(1.0));
    }
}

/// Random cut points over `[0, n]`, always containing 0 and n.
fn cut_points(n: usize, cuts: Vec<usize>) -> Vec<usize> {
    let mut points: Vec<usize> = cuts.into_iter().map(|c| c % (n + 1)).collect();
    points.push(0);
    points.push(n);
    points.sort_unstable();
    points.dedup();
    points
}

/// The split → concat round-trip law for one splitter and one value:
/// splitting at arbitrary points and concatenating the whole pieces
/// reproduces the value's elements, the reported offsets equal the cut
/// starts, and `slice_back` recovers each piece from the concatenated
/// value. Equality is checked through `extract`, a per-type element
/// projection.
fn check_split_concat_roundtrip<T: Eq + std::fmt::Debug>(
    splitter: &dyn Splitter,
    value: &DataValue,
    points: &[usize],
    extract: impl Fn(&DataValue) -> T,
) {
    let cap = splitter
        .concat()
        .expect("splitter under test exposes Concat");
    let params = splitter.default_params(value).unwrap();
    let mut pieces = Vec::new();
    let mut starts = Vec::new();
    for w in points.windows(2) {
        if w[0] < w[1] {
            starts.push(w[0] as u64);
            pieces.push(
                splitter
                    .split(value, w[0] as u64..w[1] as u64, &params)
                    .unwrap()
                    .unwrap(),
            );
        }
    }
    // split pieces are whole values of the same data type, so concat —
    // the inverse of split — must glue them back together exactly.
    let (cat, offsets) = cap.concat(&pieces).unwrap();
    prop_assert_eq!(&offsets, &starts, "concat offsets are the cut starts");
    prop_assert_eq!(extract(&cat), extract(value), "concat(split(v)) == v");
    // ...and slice_back must recover each piece from the whole.
    for (piece, w) in pieces.iter().zip(points.windows(2).filter(|w| w[0] < w[1])) {
        let back = cap
            .slice_back(&cat, w[0] as u64, (w[1] - w[0]) as u64)
            .unwrap();
        prop_assert_eq!(
            extract(&back),
            extract(piece),
            "slice_back recovers the piece"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ArraySplit (VecValue buffers): split → concat round trip.
    #[test]
    fn array_split_concat_roundtrip(data in prop::collection::vec(-1e6f64..1e6, 1..160), cuts in prop::collection::vec(0usize..160, 0..5)) {
        // Rebuild each aliasing SliceView piece as an owned buffer
        // first: concat accepts both, and mixing exercises the copy
        // path the serving layer's coalescer uses.
        let n = data.len();
        let dv = DataValue::new(VecValue(SharedVec::from_vec(data)));
        check_split_concat_roundtrip(&ArraySplit, &dv, &cut_points(n, cuts), |v| {
            if let Some(v) = v.downcast_ref::<VecValue>() {
                return v.0.to_vec().iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
            }
            let v = v.downcast_ref::<SliceView>().unwrap();
            // SAFETY: single-threaded test, no concurrent mutation.
            unsafe { v.as_slice() }.iter().map(|f| f.to_bits()).collect()
        });
    }

    /// NdSplit (rank-1 and rank-2 arrays): split → concat round trip.
    #[test]
    fn nd_split_concat_roundtrip(rows in 1usize..80, colsel in 0usize..4, cuts in prop::collection::vec(0usize..80, 0..5)) {
        let arr = match colsel {
            0 => ndarray_lite::NdArray::from_fn(&[rows], |i| i as f64 * 1.5),
            c => ndarray_lite::NdArray::from_fn(&[rows, c], |i| i as f64 - 7.0),
        };
        let dv = DataValue::new(sa_ndarray::NdValue(arr));
        check_split_concat_roundtrip(&sa_ndarray::NdSplit, &dv, &cut_points(rows, cuts), |v| {
            let a = &v.downcast_ref::<sa_ndarray::NdValue>().unwrap().0;
            (a.shape().to_vec(), a.as_slice().iter().map(|f| f.to_bits()).collect::<Vec<u64>>())
        });
    }

    /// RowSplit (frames with mixed dtypes): split → concat round trip.
    #[test]
    fn row_split_concat_roundtrip(vals in prop::collection::vec(-1e3f64..1e3, 1..100), cuts in prop::collection::vec(0usize..100, 0..5)) {
        let n = vals.len();
        let df = DataFrame::from_cols(vec![
            ("id", Column::from_i64((0..n as i64).collect())),
            ("v", Column::from_f64(vals)),
        ]);
        let dv = sa_dataframe::dfv(&df);
        check_split_concat_roundtrip(&sa_dataframe::RowSplit, &dv, &cut_points(n, cuts), |v| {
            let d = &v.downcast_ref::<sa_dataframe::DfValue>().unwrap().0;
            (
                d.col("id").i64s().to_vec(),
                d.col("v").f64s().iter().map(|f| f.to_bits()).collect::<Vec<u64>>(),
            )
        });
        // Columns carry the same split type; round-trip those too.
        let col = Column::from_f64((0..n).map(|i| i as f64 * 0.25).collect());
        let cv = sa_dataframe::colv(&col);
        check_split_concat_roundtrip(&sa_dataframe::RowSplit, &cv, &cut_points(n, vec![n / 2]), |v| {
            v.downcast_ref::<sa_dataframe::ColValue>().unwrap().0.f64s().to_vec().iter().map(|f| f.to_bits()).collect::<Vec<u64>>()
        });
    }

    /// ImageSplit (row bands): split → concat round trip.
    #[test]
    fn image_split_concat_roundtrip(w in 1usize..24, h in 1usize..40, seed in 0u64..64, cuts in prop::collection::vec(0usize..40, 0..4)) {
        let img = imagelib::Image::synthetic(w, h, seed);
        let dv = DataValue::new(sa_image::ImgValue(img));
        check_split_concat_roundtrip(&sa_image::ImageSplit, &dv, &cut_points(h, cuts), |v| {
            let i = &v.downcast_ref::<sa_image::ImgValue>().unwrap().0;
            (i.width(), i.height(), i.data().iter().map(|f| f.to_bits()).collect::<Vec<u32>>())
        });
    }

    /// CorpusSplit (documents): split → concat round trip.
    #[test]
    fn corpus_split_concat_roundtrip(docs in prop::collection::vec("[a-z ]{0,20}", 1..60), cuts in prop::collection::vec(0usize..60, 0..4)) {
        let n = docs.len();
        let dv = sa_text::corpus(&docs);
        check_split_concat_roundtrip(&sa_text::CorpusSplit, &dv, &cut_points(n, cuts), |v| {
            v.downcast_ref::<sa_text::CorpusValue>().unwrap().docs().to_vec()
        });
    }
}

/// The fold law for one merge-only split type over partial results
/// `parts` (at least two): merging them all equals merging the merges
/// of a prefix and of the rest, compared through `extract`; for a
/// commutative merge, so does merging them in the order `keys` sorts
/// them; and a piece of another type (`other`) among them is
/// `Error::Merge`.
fn check_fold_law<T: PartialEq + std::fmt::Debug>(
    splitter: &dyn Splitter,
    params: &Params,
    parts: &[DataValue],
    cut: usize,
    keys: &[u32],
    other: &DataValue,
    extract: impl Fn(&DataValue) -> T,
) {
    let merge = |pieces: &[DataValue]| splitter.merge(pieces.to_vec(), params, 0).unwrap();
    let all = extract(&merge(parts));
    let cut = 1 + cut % (parts.len() - 1);
    let nested = merge(&[merge(&parts[..cut]), merge(&parts[cut..])]);
    prop_assert_eq!(
        &extract(&nested),
        &all,
        "merge(all) == merge([merge(prefix), merge(suffix)])"
    );
    if splitter.merge_strategy().commutative() {
        let mut order: Vec<usize> = (0..parts.len()).collect();
        order.sort_by_key(|&i| keys[i % keys.len()]);
        let shuffled: Vec<DataValue> = order.iter().map(|&i| parts[i].clone()).collect();
        prop_assert_eq!(
            &extract(&merge(&shuffled)),
            &all,
            "merge is permutation-invariant"
        );
    }
    let mut mixed = parts.to_vec();
    mixed.insert(cut, other.clone());
    let err = splitter.merge(mixed, params, 0);
    prop_assert!(
        matches!(err, Err(Error::Merge { .. })),
        "a piece of another type"
    );
}

/// The Series sum's split type, which `sa-dataframe` does not export.
fn col_sum_reduce() -> std::sync::Arc<dyn Splitter> {
    let col_sum = sa_dataframe::annotations()
        .into_iter()
        .find(|a| a.name == "col_sum")
        .expect("col_sum is annotated");
    match &col_sum.ret {
        Some(mozart_repro::core::annotation::SplitTypeExpr::Concrete { splitter, .. }) => {
            splitter.clone()
        }
        _ => panic!("col_sum returns a concrete split type"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The scalar folds (`SumReduce`, `MinReduce`, `MaxReduce`,
    /// `AddReduce` and the Series sum's order-sensitive
    /// `ColSumReduce`): the fold law, bit for bit. Partials are
    /// integer-valued, so every grouping of the sums is exact.
    #[test]
    fn scalar_fold_law(xs in prop::collection::vec(-1000i32..1000, 2..9), cut in 0usize..8, keys in prop::collection::vec(0u32..1000, 8..9)) {
        let parts: Vec<DataValue> = xs.iter().map(|&x| DataValue::new(FloatValue(x as f64))).collect();
        let splitters = [
            sa_ndarray::reduce::SumReduce::shared(),
            sa_ndarray::reduce::MinReduce::shared(),
            sa_ndarray::reduce::MaxReduce::shared(),
            sa_vectormath::AddReduce::shared(),
            col_sum_reduce(),
        ];
        for s in &splitters {
            check_fold_law(s.as_ref(), &vec![], &parts, cut, &keys, &DataValue::new(IntValue(1)), |v| {
                v.downcast_ref::<FloatValue>().unwrap().0.to_bits()
            });
        }
    }

    /// `MeanReduce` over `(sum, count)` partials: the fold law.
    #[test]
    fn mean_fold_law(ps in prop::collection::vec((-1000i32..1000, 0u64..50), 2..9), cut in 0usize..8, keys in prop::collection::vec(0u32..1000, 8..9)) {
        use sa_ndarray::reduce::{MeanReduce, PartialMean};
        let parts: Vec<DataValue> = ps
            .iter()
            .map(|&(sum, count)| DataValue::new(PartialMean { sum: sum as f64, count }))
            .collect();
        check_fold_law(MeanReduce::shared().as_ref(), &vec![], &parts, cut, &keys, &DataValue::new(FloatValue(1.0)), |v| {
            let m = v.downcast_ref::<PartialMean>().unwrap();
            (m.sum.to_bits(), m.count)
        });
    }

    /// `AxisReduce`: partial column vectors of one length add (axis 0),
    /// per-row results of any length concatenate (axis 1).
    #[test]
    fn axis_fold_law(len in 1usize..6, rows in prop::collection::vec(prop::collection::vec(-100i32..100, 1..6), 2..9), cut in 0usize..8, keys in prop::collection::vec(0u32..1000, 8..9)) {
        let nd = |a| DataValue::new(sa_ndarray::NdValue(a));
        let extract = |v: &DataValue| {
            let a = &v.downcast_ref::<sa_ndarray::NdValue>().unwrap().0;
            (a.shape().to_vec(), a.as_slice().iter().map(|f| f.to_bits()).collect::<Vec<u64>>())
        };
        let splitter = sa_ndarray::reduce::AxisReduce::shared();
        let other = DataValue::new(FloatValue(1.0));
        let columns: Vec<DataValue> = rows
            .iter()
            .map(|r| nd(ndarray_lite::NdArray::from_fn(&[len], |i| r[i % r.len()] as f64)))
            .collect();
        check_fold_law(splitter.as_ref(), &vec![0], &columns, cut, &keys, &other, extract);
        let per_row: Vec<DataValue> = rows
            .iter()
            .map(|r| nd(ndarray_lite::NdArray::from_vec(r.iter().map(|&x| x as f64).collect())))
            .collect();
        check_fold_law(splitter.as_ref(), &vec![1], &per_row, cut, &keys, &other, extract);
    }

    /// `GroupSplit` over partial aggregations of row chunks of a frame:
    /// the fold law on the partial frames.
    #[test]
    fn group_fold_law(rows in prop::collection::vec((0usize..4, -100i32..100), 2..60), cuts in prop::collection::vec(0usize..60, 1..6), cut in 0usize..8) {
        use dataframe::{Agg, AggSpec};
        let n = rows.len();
        let df = DataFrame::from_cols(vec![
            ("g", Column::from_strs(&rows.iter().map(|r| ["a", "b", "c", "d"][r.0]).collect::<Vec<_>>())),
            ("v", Column::from_f64(rows.iter().map(|r| r.1 as f64).collect())),
        ]);
        let specs = vec![
            AggSpec::new("v", Agg::Mean, "avg"),
            AggSpec::new("v", Agg::Sum, "total"),
            AggSpec::new("v", Agg::Count, "n"),
            AggSpec::new("v", Agg::Min, "lo"),
            AggSpec::new("v", Agg::Max, "hi"),
        ];
        let mut points = cut_points(n, cuts);
        if points.len() < 3 {
            points = vec![0, n / 2, n];
        }
        let parts: Vec<DataValue> = points
            .windows(2)
            .map(|w| {
                DataValue::new(sa_dataframe::GroupedPartial {
                    partial: dataframe::partial_groupby_agg(&df.slice_rows(w[0], w[1]), &["g"], &specs),
                    keys: vec!["g".to_string()],
                    specs: specs.clone(),
                })
            })
            .collect();
        check_fold_law(sa_dataframe::GroupSplit::shared().as_ref(), &vec![], &parts, cut, &[], &DataValue::new(FloatValue(1.0)), |v| {
            format!("{:?}", v.downcast_ref::<sa_dataframe::GroupedPartial>().unwrap().partial)
        });
    }
}

/// The placement law for one row-band splitter and one value: the
/// pieces split at `points`, written through `alloc_merged` and
/// `write_piece` at offsets in the order `keys` sorts them, equal
/// `Splitter::merge` of the same pieces; `truncate_merged` to a written
/// prefix equals the merge of that prefix; `reuse` refuses a spare
/// while a view of it is alive or when its layout differs, and takes it
/// once it is exclusive; and `write_piece` of `other` (a value of
/// another cross-section) or of a piece that runs past the end is
/// `Error::Merge`. Targets are allocated where the executor allocates
/// them: at stage start, or else on the first piece.
fn check_placement_law<T: Eq + std::fmt::Debug>(
    splitter: &dyn Splitter,
    value: &DataValue,
    other: &DataValue,
    points: &[usize],
    keys: &[u32],
    extract: impl Fn(&DataValue) -> T,
) {
    let placement = splitter
        .merge_strategy()
        .placement()
        .expect("splitter under test places its merges")
        .clone();
    let cap = splitter
        .concat()
        .expect("splitter under test exposes Concat");
    let params = splitter.default_params(value).unwrap();
    let total = splitter.info(value, &params).unwrap().total_elements;
    let ranges: Vec<(u64, u64)> = points
        .windows(2)
        .filter(|w| w[0] < w[1])
        .map(|w| (w[0] as u64, w[1] as u64))
        .collect();
    let pieces: Vec<DataValue> = ranges
        .iter()
        .map(|&(a, b)| splitter.split(value, a..b, &params).unwrap().unwrap())
        .collect();
    let merged = |upto: usize| {
        extract(
            &splitter
                .merge(pieces[..upto].to_vec(), &params, total)
                .unwrap(),
        )
    };
    let at_start = placement
        .alloc_merged(total, &params, None)
        .unwrap()
        .is_some();
    let exemplar = (!at_start).then_some(&pieces[0]);
    let target = |rows: u64, params: &Params, first: &DataValue| {
        let ex = (!at_start).then_some(first);
        placement
            .alloc_merged(rows, params, None)
            .unwrap()
            .or_else(|| placement.alloc_merged(rows, params, ex).unwrap())
            .expect("a placement target")
    };
    let mut order: Vec<usize> = (0..pieces.len()).collect();
    order.sort_by_key(|&i| keys[i % keys.len()]);
    let fill = |out: &DataValue, upto: usize| {
        for &i in order.iter().filter(|&&i| i < upto) {
            let written = placement.write_piece(out, ranges[i].0, &pieces[i]).unwrap();
            prop_assert_eq!(
                written,
                ranges[i].1 - ranges[i].0,
                "write_piece returns the piece's rows"
            );
        }
    };

    // Shuffled placement writes reproduce the merge.
    let out = target(total, &params, &pieces[0]);
    fill(&out, pieces.len());
    prop_assert_eq!(extract(&out), merged(pieces.len()), "placed == merged");

    // A written prefix truncates to the merge of that prefix.
    let upto = 1 + keys[0] as usize % pieces.len();
    let out = target(total, &params, &pieces[0]);
    fill(&out, upto);
    let prefix = placement
        .truncate_merged(out, ranges[upto - 1].1, &params)
        .unwrap();
    prop_assert_eq!(extract(&prefix), merged(upto), "truncated == merged prefix");

    // `reuse` refuses a spare a view of which is alive, and one of
    // another row count or cross-section ...
    let out = target(total, &params, &pieces[0]);
    let view = cap.slice_back(&out, 0, ranges[0].1).unwrap();
    prop_assert!(
        placement.reuse(out, total, &params, exemplar).is_none(),
        "a view is alive"
    );
    drop(view);
    let longer = target(total + 1, &params, &pieces[0]);
    prop_assert!(
        placement.reuse(longer, total, &params, exemplar).is_none(),
        "other rows"
    );
    let other_params = splitter.default_params(other).unwrap();
    let wide = target(total, &other_params, other);
    prop_assert!(
        placement.reuse(wide, total, &params, exemplar).is_none(),
        "other cross-section"
    );
    // ... and takes an exclusive one, which then places like a fresh one.
    let out = target(total, &params, &pieces[0]);
    let out = placement
        .reuse(out, total, &params, exemplar)
        .expect("an exclusive spare is taken");
    fill(&out, pieces.len());
    prop_assert_eq!(extract(&out), merged(pieces.len()), "reused == merged");

    // Mismatched and overlong pieces are typed merge errors.
    let is_merge = |r: Result<u64>| matches!(r, Err(Error::Merge { .. }));
    prop_assert!(
        is_merge(placement.write_piece(&out, 0, other)),
        "other cross-section"
    );
    let (last, rows) = (pieces.last().unwrap(), ranges.last().unwrap());
    prop_assert!(
        is_merge(placement.write_piece(&out, total - (rows.1 - rows.0) + 1, last)),
        "past the end"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// NdSplit (rank-1 and rank-2 arrays): the placement law.
    #[test]
    fn nd_split_placement_law(rows in 1usize..80, colsel in 0usize..4, cuts in prop::collection::vec(0usize..80, 0..5), keys in prop::collection::vec(0u32..1000, 6..7)) {
        let (arr, other) = match colsel {
            0 => (ndarray_lite::NdArray::from_fn(&[rows], |i| i as f64 * 1.5), ndarray_lite::NdArray::zeros(&[1, 2])),
            c => (ndarray_lite::NdArray::from_fn(&[rows, c], |i| i as f64 - 7.0), ndarray_lite::NdArray::zeros(&[1, c + 1])),
        };
        let nd = |a| DataValue::new(sa_ndarray::NdValue(a));
        check_placement_law(&sa_ndarray::NdSplit, &nd(arr), &nd(other), &cut_points(rows, cuts), &keys, |v| {
            let a = &v.downcast_ref::<sa_ndarray::NdValue>().unwrap().0;
            (a.shape().to_vec(), a.as_slice().iter().map(|f| f.to_bits()).collect::<Vec<u64>>())
        });
    }

    /// ImageSplit (row bands): the placement law.
    #[test]
    fn image_split_placement_law(w in 1usize..24, h in 1usize..40, seed in 0u64..64, cuts in prop::collection::vec(0usize..40, 0..4), keys in prop::collection::vec(0u32..1000, 6..7)) {
        let img = |w, h| DataValue::new(sa_image::ImgValue(imagelib::Image::synthetic(w, h, seed)));
        check_placement_law(&sa_image::ImageSplit, &img(w, h), &img(w + 1, 1), &cut_points(h, cuts), &keys, |v| {
            let i = &v.downcast_ref::<sa_image::ImgValue>().unwrap().0;
            (i.width(), i.height(), i.data().iter().map(|f| f.to_bits()).collect::<Vec<u32>>())
        });
    }

    /// RowSplit over frames and over columns: the placement law.
    #[test]
    fn row_split_placement_law(vals in prop::collection::vec(-1e3f64..1e3, 1..100), cuts in prop::collection::vec(0usize..100, 0..5), keys in prop::collection::vec(0u32..1000, 6..7)) {
        let n = vals.len();
        let df = DataFrame::from_cols(vec![
            ("id", Column::from_i64((0..n as i64).collect())),
            ("v", Column::from_f64(vals.clone())),
        ]);
        let other = DataFrame::from_cols(vec![
            ("id", Column::from_f64(vec![0.0])),
            ("v", Column::from_f64(vec![0.0])),
        ]);
        check_placement_law(&sa_dataframe::RowSplit, &sa_dataframe::dfv(&df), &sa_dataframe::dfv(&other), &cut_points(n, cuts.clone()), &keys, |v| {
            let d = &v.downcast_ref::<sa_dataframe::DfValue>().unwrap().0;
            (
                d.col("id").i64s().to_vec(),
                d.col("v").f64s().iter().map(|f| f.to_bits()).collect::<Vec<u64>>(),
            )
        });
        let col = sa_dataframe::colv(&Column::from_f64(vals));
        let other = sa_dataframe::colv(&Column::from_i64(vec![1]));
        check_placement_law(&sa_dataframe::RowSplit, &col, &other, &cut_points(n, cuts), &keys, |v| {
            v.downcast_ref::<sa_dataframe::ColValue>().unwrap().0.f64s().iter().map(|f| f.to_bits()).collect::<Vec<u64>>()
        });
    }
}

// The copies are deliberate: each op reads a snapshot of `v` while
// writing into `v`, which the in-place kernels would otherwise alias.
#[allow(clippy::unnecessary_to_owned)]
fn apply_eager(op: u8, v: &mut [f64]) {
    match op % 5 {
        0 => vectormath::vd_scale(&v.to_owned(), 1.01, v),
        1 => vectormath::vd_shift(&v.to_owned(), 0.5, v),
        2 => vectormath::vd_sqrt(&v.to_owned(), v),
        3 => vectormath::vd_log1p(&v.to_owned(), v),
        _ => vectormath::vd_sqr(&v.to_owned(), v),
    }
}

fn apply_mozart(op: u8, c: &MozartContext, n: usize, buf: &SharedVec<f64>) -> Result<()> {
    use sa_vectormath as sa;
    match op % 5 {
        0 => sa::vd_scale(c, n, buf, 1.01, buf),
        1 => sa::vd_shift(c, n, buf, 0.5, buf),
        2 => sa::vd_sqrt(c, n, buf, buf),
        3 => sa::vd_log1p(c, n, buf, buf),
        _ => sa::vd_sqr(c, n, buf, buf),
    }
}

// ---------------------------------------------------------------------
// Demand-driven materialization (ISSUE 12): the order an application
// reads its handles in is invisible in the values it reads.
// ---------------------------------------------------------------------

/// When the handles of a captured pipeline are read.
#[derive(Debug, Clone, Copy)]
enum ReadOrder {
    /// Only the last handle triggers the evaluation; the rest are read
    /// afterwards, from whatever the runtime kept for them.
    LastOnly,
    CaptureOrder,
    Reversed,
    /// `evaluate()` first: every live value is merged eagerly (the
    /// reference behaviour).
    EvaluateFirst,
}

/// Configuration axes the read-order property quantifies over.
#[derive(Debug, Clone)]
struct DemandAxes {
    workers: usize,
    batch: u64,
    pipeline: bool,
}

fn demand_axes() -> impl Strategy<Value = DemandAxes> {
    (1usize..3, 1u64..24, any::<bool>()).prop_map(|(workers, batch, pipeline)| DemandAxes {
        workers,
        batch,
        pipeline,
    })
}

/// Capture a pipeline on a fresh context, read its handles per `order`,
/// and return a bit-exact rendering of every handle's value.
fn read_handles(
    axes: &DemandAxes,
    cache: &std::sync::Arc<PlanCache>,
    order: ReadOrder,
    capture: &dyn Fn(&MozartContext) -> Vec<FutureHandle>,
    render: &dyn Fn(&DataValue) -> String,
) -> Vec<String> {
    mozart_repro::workloads::register_all_defaults();
    let mut cfg = Config::with_workers(axes.workers);
    cfg.batch_override = Some(axes.batch);
    cfg.pipeline = axes.pipeline;
    let c = MozartContext::new(cfg);
    c.attach_plan_cache(cache.clone());
    let handles = capture(&c);
    let n = handles.len();
    let reads: Vec<usize> = match order {
        ReadOrder::LastOnly => vec![n - 1],
        ReadOrder::CaptureOrder => (0..n).collect(),
        ReadOrder::Reversed => (0..n).rev().collect(),
        ReadOrder::EvaluateFirst => {
            c.evaluate().unwrap();
            vec![]
        }
    };
    for i in reads {
        handles[i].get().unwrap();
    }
    handles.iter().map(|h| render(&h.get().unwrap())).collect()
}

/// Every read order — cold, then warm on the plan cache — reads
/// exactly what `evaluate()`-then-read reads.
fn check_read_orders(
    axes: &DemandAxes,
    capture: &dyn Fn(&MozartContext) -> Vec<FutureHandle>,
    render: &dyn Fn(&DataValue) -> String,
) {
    let fresh = || std::sync::Arc::new(PlanCache::new(8));
    let reference = read_handles(axes, &fresh(), ReadOrder::EvaluateFirst, capture, render);
    for order in [
        ReadOrder::LastOnly,
        ReadOrder::CaptureOrder,
        ReadOrder::Reversed,
    ] {
        let cache = fresh();
        for warm in [false, true] {
            let got = read_handles(axes, &cache, order, capture, render);
            assert_eq!(got, reference, "{axes:?} {order:?} warm={warm}");
        }
    }
}

/// Bit-exact rendering of `f64`s (`Debug` would conflate NaN payloads).
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dataframe wrappers: column arithmetic, masks, and filters (the
    /// `unknown` split type) feeding further arithmetic; every handle
    /// the program creates is kept.
    #[test]
    fn dataframe_read_order_is_invisible(
        rows in prop::collection::vec((-50i32..50, any::<bool>()), 1..90),
        program in prop::collection::vec(0u8..4, 1..7),
        axes in demand_axes(),
    ) {
        use sa_dataframe as sa;
        let n = rows.len();
        // Row 0 is always kept: a stage over an empty frame produces no
        // pieces, which every merge path rejects alike.
        let keep = rows.iter().enumerate().map(|(i, r)| f64::from(u8::from(i == 0 || r.1)));
        let df = DataFrame::from_cols(vec![
            ("id", Column::from_i64((0..n as i64).collect())),
            ("v", Column::from_f64(rows.iter().map(|r| f64::from(r.0)).collect())),
            ("keep", Column::from_f64(keep.collect())),
        ]);
        let capture = |c: &MozartContext| {
            let mut handles = vec![sa::col(c, &df, "v").unwrap()];
            // Index of the filtered frame the running column belongs
            // to; `None` while it still belongs to `df`.
            let mut frame: Option<usize> = None;
            for op in &program {
                let col = handles.last().unwrap();
                match op {
                    0 => handles.push(sa::add_scalar(c, col, 1.5).unwrap()),
                    1 => handles.push(sa::mul_scalar(c, col, -2.0).unwrap()),
                    2 => handles.push(sa::mul(c, col, col).unwrap()),
                    _ => {
                        let flags = match frame {
                            Some(f) => sa::col(c, &handles[f], "keep"),
                            None => sa::col(c, &df, "keep"),
                        }
                        .unwrap();
                        let mask = sa::gt_scalar(c, &flags, 0.5).unwrap();
                        let kept = match frame {
                            Some(f) => sa::filter(c, &handles[f], &mask),
                            None => sa::filter(c, &df, &mask),
                        }
                        .unwrap();
                        let kept_col = sa::col(c, &kept, "v").unwrap();
                        frame = Some(handles.len() + 2);
                        handles.extend([flags, mask, kept, kept_col]);
                    }
                }
            }
            handles
        };
        let render = |v: &DataValue| match v.downcast_ref::<sa::ColValue>() {
            Some(col) if matches!(col.0, Column::F64(_)) => format!("{:?}", bits(col.0.f64s())),
            Some(col) => format!("{:?}", col.0),
            None => {
                let d = &v.downcast_ref::<sa::DfValue>().unwrap().0;
                format!("{:?} {:?}", d.col("id").i64s(), bits(d.col("v").f64s()))
            }
        };
        check_read_orders(&axes, &capture, &render);
    }

    /// NdArray wrappers: elementwise chains over rank-2 arrays.
    #[test]
    fn ndarray_read_order_is_invisible(
        rows in 1usize..70,
        cols in 1usize..4,
        program in prop::collection::vec(0u8..5, 1..7),
        axes in demand_axes(),
    ) {
        use sa_ndarray as sa;
        let src = ndarray_lite::NdArray::from_fn(&[rows, cols], |i| i as f64 * 0.25 - 3.0);
        let capture = |c: &MozartContext| {
            let mut handles = vec![sa::add_scalar(c, &src, 0.5).unwrap()];
            for op in &program {
                let prev = handles.last().unwrap();
                handles.push(
                    match op {
                        0 => sa::mul_scalar(c, prev, -1.5),
                        1 => sa::square(c, prev),
                        2 => sa::abs(c, prev),
                        3 => sa::add(c, prev, &src),
                        _ => sa::sub(c, prev, &handles[0]),
                    }
                    .unwrap(),
                );
            }
            handles
        };
        let render = |v: &DataValue| {
            let a = &v.downcast_ref::<sa::NdValue>().unwrap().0;
            format!("{:?} {:?}", a.shape(), bits(a.as_slice()))
        };
        check_read_orders(&axes, &capture, &render);
    }

    /// Image wrappers: per-pixel filter chains (row-band split type,
    /// placement-written merged output).
    #[test]
    fn image_read_order_is_invisible(
        w in 1usize..20,
        h in 1usize..36,
        seed in 0u64..32,
        program in prop::collection::vec(0u8..3, 1..5),
        axes in demand_axes(),
    ) {
        use sa_image as sa;
        let img = imagelib::Image::synthetic(w, h, seed);
        let capture = |c: &MozartContext| {
            let mut handles = vec![sa::gamma(c, &img, 1.2).unwrap()];
            for op in &program {
                let prev = handles.last().unwrap();
                handles.push(
                    match op {
                        0 => sa::gamma(c, prev, 0.8),
                        1 => sa::contrast(c, prev, 3.0),
                        _ => sa::modulate(c, prev, 100.0, 150.0, 100.0),
                    }
                    .unwrap(),
                );
            }
            handles
        };
        let render = |v: &DataValue| {
            let i = &v.downcast_ref::<sa::ImgValue>().unwrap().0;
            let px: Vec<u32> = i.data().iter().map(|f| f.to_bits()).collect();
            format!("{}x{} {px:?}", i.width(), i.height())
        };
        check_read_orders(&axes, &capture, &render);
    }
}

/// Holding every intermediate handle across the read merges exactly
/// the bytes that dropping them first merges — the demanded total and
/// nothing else — and the 8 intermediates stay lineage.
#[test]
fn crime_index_held_handles_merge_no_extra_bytes() {
    use mozart_repro::workloads::crime_index;
    let df = crime_index::generate(5000, 11);
    let run = |held: bool| {
        let c = ctx(2, 256);
        let f = if held {
            crime_index::mozart
        } else {
            crime_index::mozart_handles_dropped
        };
        (f(&df, &c).unwrap().index_sum, c.stats())
    };
    let (held_sum, held) = run(true);
    let (dropped_sum, dropped) = run(false);
    assert!(mozart_repro::workloads::close(held_sum, dropped_sum, 1e-12));
    assert_eq!(held.bytes_merged, dropped.bytes_merged);
    assert_eq!((held.lineage_outputs, dropped.lineage_outputs), (8, 0));
    assert_eq!(held.lineage_replays, 0, "nobody read the intermediates");
}
