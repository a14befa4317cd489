//! Merge-only split types, written once: the splitting API for the
//! partial results of reductions.
//!
//! A reduction's pieces are partial results — partial sums, partial
//! `(sum, count)` means, partial axis sums, partial grouped
//! aggregations — so its split type is never split, only merged ("we
//! implemented split types for each reduction operator to merge the
//! partial results: these only required merge functions", §7). Where
//! [`crate::row_bands`] combines pieces by concatenation along the
//! split dimension, these combine them with an associative operator.
//! Everything but the operator is the same for all of them, and is
//! implemented here, once:
//!
//! * [`Splitter::info`] and [`Splitter::split`] refuse with
//!   [`Error::Split`]: a merge-only value is never an input to split;
//! * [`Splitter::merge`] downcasts every piece to the split type's
//!   partial type and refuses an empty list or a piece of another type
//!   with an [`Error::Merge`] naming the split type;
//! * [`Splitter::merge_strategy`] is terminal, commutative or
//!   order-sensitive as the split type declares.
//!
//! An integration implements [`MergeOnly`]: the name, whether the merge
//! commutes, the partial type, the merge of a non-empty list of
//! partials, and a constructor when the split type has parameters.
//! [`MergeOnly::shared`] makes the [`Splitter`].

use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::split::{MergeStrategy, Params, RuntimeInfo, Splitter};
use crate::value::{short_type_name, DataObject, DataValue};

/// A merge-only split type: everything about it the generic
/// implementation cannot know.
pub trait MergeOnly: Send + Sync + 'static {
    /// The split type's name ([`Splitter::name`]).
    const NAME: &'static str;

    /// Whether partials fold in any order
    /// ([`MergeStrategy::Commutative`]) or only in element order
    /// ([`MergeStrategy::Custom`]). Either way the partials are
    /// terminal: they merge before any other function consumes them.
    const COMMUTATIVE: bool;

    /// The partial result each piece holds, and the merge returns.
    type Partial: DataObject;

    /// The constructor ([`Splitter::construct`]); by default the split
    /// type has no parameters.
    fn construct(ctor_args: &[&DataValue]) -> Result<Params> {
        let _ = ctor_args;
        Ok(Vec::new())
    }

    /// Merge `parts` — never empty, in element order unless the merge
    /// commutes — into one partial, or say why they do not merge.
    fn merge(parts: &[&Self::Partial], params: &Params) -> Result<Self::Partial, String>;

    /// The split type as a [`Splitter`].
    fn shared() -> Arc<dyn Splitter>
    where
        Self: Sized,
    {
        Arc::new(Fold::<Self>(PhantomData))
    }
}

/// The generic merge-only [`Splitter`] of `T`.
struct Fold<T>(PhantomData<fn() -> T>);

impl<T: MergeOnly> Splitter for Fold<T> {
    fn name(&self) -> &'static str {
        T::NAME
    }

    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        T::construct(ctor_args)
    }

    fn info(&self, _: &DataValue, _: &Params) -> Result<RuntimeInfo> {
        Err(merge_only::<T>())
    }

    fn split(&self, _: &DataValue, _: Range<u64>, _: &Params) -> Result<Option<DataValue>> {
        Err(merge_only::<T>())
    }

    fn merge(&self, pieces: Vec<DataValue>, params: &Params, _: u64) -> Result<DataValue> {
        let error = |message| Error::Merge {
            split_type: T::NAME,
            message,
        };
        let expected = short_type_name::<T::Partial>();
        let parts: Vec<&T::Partial> = (pieces.iter())
            .map(|p| {
                let got = || error(format!("expected {expected}, got {}", p.type_name()));
                p.downcast_ref().ok_or_else(got)
            })
            .collect::<Result<_>>()?;
        if parts.is_empty() {
            return Err(error("no partial results to merge".into()));
        }
        T::merge(&parts, params).map(DataValue::new).map_err(error)
    }

    fn merge_strategy(&self) -> MergeStrategy {
        match T::COMMUTATIVE {
            true => MergeStrategy::Commutative { terminal: true },
            false => MergeStrategy::Custom { terminal: true },
        }
    }
}

fn merge_only<T: MergeOnly>() -> Error {
    Error::Split {
        split_type: T::NAME,
        message: "merge-only split type".into(),
    }
}
