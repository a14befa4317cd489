//! Merge-only split type for scalar reductions (`ddot`, `dasum`): a
//! [`MergeOnly`] implementation, whose splitting API
//! `mozart_core::merge_only` derives.

use mozart_core::prelude::*;

/// Additive scalar reduction: pieces are `FloatValue` partial sums and
/// merge sums them. Addition is associative, so worker-level and final
/// merges compose (§3.4).
pub struct AddReduce;

/// Partial sums fold in element order and must merge before any other
/// function consumes them.
impl MergeOnly for AddReduce {
    const NAME: &'static str = "AddReduce";
    type Partial = FloatValue;

    fn merge(parts: &[&FloatValue], _: &Params) -> Result<FloatValue, String> {
        Ok(FloatValue(parts.iter().fold(0.0, |acc, p| acc + p.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_and_is_associative() {
        let s = AddReduce::shared();
        let mk = |x: f64| DataValue::new(FloatValue(x));
        let all = s
            .merge(vec![mk(1.0), mk(2.0), mk(3.0)], &vec![], 0)
            .unwrap();
        let left = s.merge(vec![mk(1.0), mk(2.0)], &vec![], 0).unwrap();
        let nested = s.merge(vec![left, mk(3.0)], &vec![], 0).unwrap();
        assert_eq!(
            all.downcast_ref::<FloatValue>().unwrap().0,
            nested.downcast_ref::<FloatValue>().unwrap().0
        );
    }

    #[test]
    fn split_and_info_are_rejected() {
        let s = AddReduce::shared();
        let v = DataValue::new(FloatValue(0.0));
        assert!(s.info(&v, &vec![]).is_err());
        assert!(s.split(&v, 0..1, &vec![]).is_err());
        assert!(s
            .merge(vec![DataValue::new(IntValue(1))], &vec![], 0)
            .is_err());
    }
}
