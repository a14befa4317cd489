//! The `CorpusSplit` split type for corpora and per-document results.
//!
//! A corpus splits by documents (spaCy's minibatch pattern) and its
//! per-document results merge by concatenation in document order, so
//! `CorpusSplit` is a row-band split type ([`mozart_core::row_bands`])
//! whose rows are documents. [`CorpusValue`] and [`TaggedValue`] are
//! shared documents plus the range of them a value holds: a split
//! piece or a `slice_back` is a view of its parent's documents, not a
//! copy. The corpus declines placement — documents are heap values of
//! varying size, so no output can be allocated ahead of them — and its
//! outputs collect and concatenate.

use std::ops::Range;
use std::sync::Arc;

use mozart_core::prelude::*;
use mozart_core::row_bands::{bands, Bands, RowBand, RowSplitter};
use mozart_core::value::DataObject;
use textproc::{DocFeatures, TaggedDoc};

/// Shared documents and the range of them a value holds.
#[derive(Debug, Clone)]
pub struct Docs<T> {
    docs: Arc<Vec<T>>,
    rows: Range<usize>,
}

/// `DataValue` wrapper for a corpus of documents.
pub type CorpusValue = Docs<String>;

/// `DataValue` wrapper for tagged output (one entry per document).
pub type TaggedValue = Docs<(TaggedDoc, DocFeatures)>;

impl<T> Docs<T> {
    /// A value holding all of `docs`.
    pub fn new(docs: Vec<T>) -> Self {
        let rows = 0..docs.len();
        Docs {
            docs: Arc::new(docs),
            rows,
        }
    }

    /// The documents this value holds.
    pub fn docs(&self) -> &[T] {
        &self.docs[self.rows.clone()]
    }
}

impl DataObject for CorpusValue {
    fn type_name(&self) -> &'static str {
        "CorpusValue"
    }
}

impl DataObject for TaggedValue {
    fn type_name(&self) -> &'static str {
        "TaggedValue"
    }
}

impl<T: Clone + Send + Sync + 'static> RowBand for Docs<T>
where
    Self: DataObject,
{
    fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Documents have no cross-section: any two lists of them stack.
    fn same_cross_section(&self, _: &Self) -> bool {
        true
    }

    fn view(&self, start: usize, end: usize) -> Self {
        let at = self.rows.start;
        Docs {
            docs: self.docs.clone(),
            rows: at + start..at + end,
        }
    }

    fn concat(parts: &[&Self]) -> Self {
        Docs::new(parts.iter().flat_map(|p| p.docs()).cloned().collect())
    }

    /// Declines placement, so outputs collect.
    unsafe fn alloc_uninit(_: usize, _: &Params, _: Option<&Self>) -> Option<Self> {
        None
    }

    unsafe fn write_rows(&self, _: usize, _: &Self) {
        unreachable!("alloc_uninit allocates no corpus to write into")
    }

    fn is_exclusive(&mut self) -> bool {
        self.rows == (0..self.docs.len()) && Arc::get_mut(&mut self.docs).is_some()
    }
}

/// Document-based split type for corpora and per-document results.
/// Parameter: document count.
#[derive(Default)]
pub struct CorpusSplit;

impl CorpusSplit {
    /// Shared instance.
    pub fn shared() -> Arc<dyn Splitter> {
        Arc::new(CorpusSplit)
    }
}

impl RowSplitter for CorpusSplit {
    const NAME: &'static str = "CorpusSplit";

    fn construct(ctor_args: &[&DataValue]) -> Result<Params> {
        let docs = ctor_args.first().and_then(|v| {
            (v.downcast_ref::<CorpusValue>().map(RowBand::rows))
                .or_else(|| v.downcast_ref::<TaggedValue>().map(RowBand::rows))
        });
        let docs = docs.ok_or_else(|| Error::Constructor {
            split_type: "CorpusSplit",
            message: "expected a corpus argument".into(),
        })?;
        Ok(vec![docs as i64])
    }

    fn info(params: &Params) -> RuntimeInfo {
        RuntimeInfo {
            total_elements: params.first().copied().unwrap_or(0).max(0) as u64,
            // Documents are large; approximate 1 KiB per doc so batches
            // stay cache-sized.
            elem_size_bytes: 1024,
        }
    }

    fn bands(value: Option<&DataValue>) -> &'static dyn Bands {
        match value {
            Some(v) if v.downcast_ref::<TaggedValue>().is_some() => bands::<Self, TaggedValue>(),
            _ => bands::<Self, CorpusValue>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pieces_and_slices_share_their_parents_documents() {
        let s = CorpusSplit;
        let c = textproc::synthetic_corpus(10, 4, 1);
        let arg = DataValue::new(CorpusValue::new(c.clone()));
        let docs = |v: &DataValue| v.downcast_ref::<CorpusValue>().unwrap().docs().as_ptr();
        let piece = s.split(&arg, 3..7, &vec![10]).unwrap().unwrap();
        assert_eq!(docs(&piece), docs(&arg).wrapping_add(3));
        assert_eq!(
            piece.downcast_ref::<CorpusValue>().unwrap().docs(),
            &c[3..7]
        );
        // A view of a view, through the Concat capability.
        let cap = CorpusSplit::shared().concat().unwrap();
        let back = cap.slice_back(&piece, 1, 2).unwrap();
        assert_eq!(docs(&back), docs(&arg).wrapping_add(4));
        assert_eq!(back.downcast_ref::<CorpusValue>().unwrap().docs(), &c[4..6]);
        // Tagged results are views too.
        let tagged = DataValue::new(TaggedValue::new(textproc::tag_corpus(&c)));
        let back = cap.slice_back(&tagged, 2, 5).unwrap();
        let ptr = |v: &DataValue| v.downcast_ref::<TaggedValue>().unwrap().docs().as_ptr();
        assert_eq!(ptr(&back), ptr(&tagged).wrapping_add(2));
    }

    #[test]
    fn the_corpus_declines_placement() {
        let s = CorpusSplit;
        let arg = DataValue::new(CorpusValue::new(textproc::synthetic_corpus(4, 4, 2)));
        let piece = s.split(&arg, 0..2, &vec![4]).unwrap().unwrap();
        let strategy = s.merge_strategy();
        let placement = strategy.placement().unwrap();
        assert!(placement.alloc_merged(4, &vec![4], None).unwrap().is_none());
        assert!(placement
            .alloc_merged(4, &vec![4], Some(&piece))
            .unwrap()
            .is_none());
    }
}
