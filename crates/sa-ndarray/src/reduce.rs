//! Merge-only split types for reduction operators ("we implemented
//! split types for each reduction operator to merge the partial
//! results: these only required merge functions", §7). Each implements
//! [`MergeOnly`] — name, partial type and merge — and
//! `mozart_core::merge_only` supplies the rest of the splitting API.

use mozart_core::prelude::*;
use mozart_core::row_bands::RowBand;

use crate::split::NdValue;

/// Re-mergeable partial mean: `(sum, count)`.
///
/// Keeping partials re-mergeable (instead of finishing to a scalar at
/// the worker level) is what makes the merge associative, the §3.4
/// requirement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartialMean {
    /// Partial sum.
    pub sum: f64,
    /// Partial count.
    pub count: u64,
}

impl PartialMean {
    /// The finished mean.
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }
}

impl mozart_core::value::DataObject for PartialMean {
    fn type_name(&self) -> &'static str {
        "PartialMean"
    }
}

macro_rules! scalar_reduce {
    ($(#[$doc:meta])* $name:ident, $init:expr, $f:expr) => {
        $(#[$doc])*
        pub struct $name;

        /// sum/min/max folds of partial results, in element order.
        impl MergeOnly for $name {
            const NAME: &'static str = stringify!($name);
            type Partial = FloatValue;

            fn merge(parts: &[&FloatValue], _: &Params) -> Result<FloatValue, String> {
                Ok(FloatValue(parts.iter().fold($init, |acc, p| $f(acc, p.0))))
            }
        }
    };
}

scalar_reduce!(
    /// Merge for full `sum` reductions.
    SumReduce, 0.0, |a: f64, b: f64| a + b
);
scalar_reduce!(
    /// Merge for full `min` reductions.
    MinReduce, f64::INFINITY, f64::min
);
scalar_reduce!(
    /// Merge for full `max` reductions.
    MaxReduce, f64::NEG_INFINITY, f64::max
);

/// Merge for full `mean` reductions over [`PartialMean`] pieces.
pub struct MeanReduce;

/// Partial (sum, count) pairs fold in element order.
impl MergeOnly for MeanReduce {
    const NAME: &'static str = "MeanReduce";
    type Partial = PartialMean;

    fn merge(parts: &[&PartialMean], _: &Params) -> Result<PartialMean, String> {
        let (mut sum, mut count) = (0.0, 0);
        for p in parts {
            sum += p.sum;
            count += p.count;
        }
        Ok(PartialMean { sum, count })
    }
}

/// Merge for axis reductions (Listing 4's Ex. 5 `ReduceSplit<axis>`):
/// partial vectors from row chunks either sum elementwise (`axis = 0`,
/// reduced *across* rows) or concatenate (`axis = 1`, reduced *within*
/// rows). Parameter: the axis.
pub struct AxisReduce;

/// Partial axis reductions must merge before further use; the merge
/// is order-sensitive (axis 1 concatenates per-row results).
impl MergeOnly for AxisReduce {
    const NAME: &'static str = "AxisReduce";
    type Partial = NdValue;

    /// Constructor from the `axis` argument (the paper's
    /// `ReduceSplit(axis)`).
    fn construct(ctor_args: &[&DataValue]) -> Result<Params> {
        let axis = ctor_args
            .first()
            .and_then(|v| mozart_core::value::as_i64(v))
            .ok_or_else(|| Error::Constructor {
                split_type: "AxisReduce",
                message: "expected integer axis argument".into(),
            })?;
        Ok(vec![axis])
    }

    /// Checks the shapes first: the library's add and concat panic on a
    /// mismatch.
    fn merge(parts: &[&NdValue], params: &Params) -> Result<NdValue, String> {
        let first = parts[0];
        let shapes = || {
            format!(
                "{:?}",
                parts.iter().map(|p| p.0.shape()).collect::<Vec<_>>()
            )
        };
        if params.first().copied().unwrap_or(0) == 0 {
            // Partial column-vectors: elementwise sum.
            if parts.iter().any(|p| p.0.shape() != first.0.shape()) {
                return Err(format!("axis-0 partials of shapes {} do not add", shapes()));
            }
            let mut acc = first.0.clone();
            for p in &parts[1..] {
                acc = ndarray_lite::add(&acc, &p.0);
            }
            Ok(NdValue(acc))
        } else {
            // Per-row results: concatenate in row order.
            if !parts.iter().all(|p| p.same_cross_section(first)) {
                return Err(format!(
                    "axis-1 partials of shapes {} do not stack",
                    shapes()
                ));
            }
            Ok(RowBand::concat(parts))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndarray_lite::NdArray;

    fn axis_merge(pieces: Vec<NdArray>, axis: i64) -> Result<DataValue> {
        let pieces = pieces
            .into_iter()
            .map(|a| DataValue::new(NdValue(a)))
            .collect();
        AxisReduce::shared().merge(pieces, &vec![axis], 0)
    }

    fn is_axis_merge_error(r: Result<DataValue>) -> bool {
        matches!(
            r,
            Err(Error::Merge {
                split_type: "AxisReduce",
                ..
            })
        )
    }

    #[test]
    fn scalar_merges() {
        let mk = |x: f64| DataValue::new(FloatValue(x));
        let s = SumReduce::shared()
            .merge(vec![mk(1.0), mk(2.5)], &vec![], 0)
            .unwrap();
        assert_eq!(s.downcast_ref::<FloatValue>().unwrap().0, 3.5);
        let m = MinReduce::shared()
            .merge(vec![mk(4.0), mk(-1.0)], &vec![], 0)
            .unwrap();
        assert_eq!(m.downcast_ref::<FloatValue>().unwrap().0, -1.0);
        let m = MaxReduce::shared()
            .merge(vec![mk(4.0), mk(-1.0)], &vec![], 0)
            .unwrap();
        assert_eq!(m.downcast_ref::<FloatValue>().unwrap().0, 4.0);
    }

    #[test]
    fn mean_reduce_is_weighted_and_associative() {
        let p = |sum: f64, count: u64| DataValue::new(PartialMean { sum, count });
        // Unequal chunk sizes: naive mean-of-means would be wrong.
        let all = MeanReduce::shared()
            .merge(vec![p(10.0, 1), p(2.0, 4)], &vec![], 0)
            .unwrap();
        let got = all.downcast_ref::<PartialMean>().unwrap();
        assert_eq!(got.value(), 12.0 / 5.0);
        // Associativity: merge of merges equals flat merge.
        let left = MeanReduce::shared()
            .merge(vec![p(10.0, 1)], &vec![], 0)
            .unwrap();
        let nested = MeanReduce::shared()
            .merge(vec![left, p(2.0, 4)], &vec![], 0)
            .unwrap();
        assert_eq!(*nested.downcast_ref::<PartialMean>().unwrap(), *got);
    }

    #[test]
    fn axis_reduce_merges_by_axis() {
        let nd = |a: NdArray| DataValue::new(NdValue(a));
        // axis 0: partials add elementwise.
        let p1 = nd(NdArray::from_vec(vec![1.0, 2.0]));
        let p2 = nd(NdArray::from_vec(vec![10.0, 20.0]));
        let m = AxisReduce::shared()
            .merge(vec![p1, p2], &vec![0], 0)
            .unwrap();
        assert_eq!(
            m.downcast_ref::<NdValue>().unwrap().0.as_slice(),
            &[11.0, 22.0]
        );
        // axis 1: partials concatenate.
        let p1 = nd(NdArray::from_vec(vec![1.0, 2.0]));
        let p2 = nd(NdArray::from_vec(vec![3.0]));
        let m = AxisReduce::shared()
            .merge(vec![p1, p2], &vec![1], 0)
            .unwrap();
        assert_eq!(
            m.downcast_ref::<NdValue>().unwrap().0.as_slice(),
            &[1.0, 2.0, 3.0]
        );
    }

    #[test]
    fn axis_constructor_reads_axis_argument() {
        let axis = DataValue::new(IntValue(1));
        assert_eq!(AxisReduce::shared().construct(&[&axis]).unwrap(), vec![1]);
        // ReduceSplit<0> != ReduceSplit<1>.
        let a = SplitInstance::new(AxisReduce::shared(), vec![0]);
        let b = SplitInstance::new(AxisReduce::shared(), vec![1]);
        assert!(!a.same_type(&b));
    }

    #[test]
    fn axis_merge_of_no_partials_is_a_merge_error() {
        assert!(is_axis_merge_error(axis_merge(vec![], 0)));
        assert!(is_axis_merge_error(axis_merge(vec![], 1)));
    }

    #[test]
    fn axis_0_partials_of_different_lengths_are_a_merge_error() {
        let (a, b) = (
            NdArray::from_vec(vec![1.0, 2.0]),
            NdArray::from_vec(vec![3.0]),
        );
        assert!(is_axis_merge_error(axis_merge(vec![a, b], 0)));
    }

    #[test]
    fn axis_1_partials_of_different_rank_are_a_merge_error() {
        let (a, b) = (NdArray::from_vec(vec![1.0, 2.0]), NdArray::zeros(&[1, 2]));
        assert!(is_axis_merge_error(axis_merge(vec![a, b], 1)));
    }
}
