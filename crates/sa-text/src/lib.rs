//! # sa-text — split annotations for the `textproc` library
//!
//! The annotator-side integration for the spaCy stand-in (§7 "spaCy"):
//! "We added a split type that uses spaCy's builtin minibatch tokenizer
//! to split a corpus of text. This allows any function (including
//! user-defined ones) that accepts text and internally uses spaCy
//! functions to be parallelized and pipelined."
//!
//! [`CorpusSplit`] splits a corpus by documents; [`annotate_corpus_fn`]
//! is the Rust analogue of the Python decorator: hand it *any*
//! per-document function and it becomes a parallelizable annotated
//! call. The `textproc` crate itself is not modified.

#![warn(missing_docs)]

use std::ops::Range;
use std::sync::{Arc, LazyLock};

use mozart_core::annotation::concrete;
use mozart_core::prelude::*;
use mozart_core::split::{Concat, MergeStrategy};
use textproc::{Corpus, DocFeatures, TaggedDoc};

/// `DataValue` wrapper for a corpus of documents.
#[derive(Debug, Clone)]
pub struct CorpusValue(pub Arc<Corpus>);

impl mozart_core::value::DataObject for CorpusValue {
    fn type_name(&self) -> &'static str {
        "CorpusValue"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// `DataValue` wrapper for tagged output (one entry per document).
#[derive(Debug, Clone)]
pub struct TaggedValue(pub Arc<Vec<(TaggedDoc, DocFeatures)>>);

impl mozart_core::value::DataObject for TaggedValue {
    fn type_name(&self) -> &'static str {
        "TaggedValue"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Document-based split type for corpora and per-document results.
/// Parameter: document count. Splits slice the document list
/// (the minibatch pattern); merges concatenate in document order.
pub struct CorpusSplit;

impl CorpusSplit {
    /// Shared instance.
    pub fn shared() -> Arc<dyn Splitter> {
        Arc::new(CorpusSplit)
    }

    fn docs_of(v: &DataValue) -> Result<usize> {
        if let Some(c) = v.downcast_ref::<CorpusValue>() {
            return Ok(c.0.len());
        }
        if let Some(t) = v.downcast_ref::<TaggedValue>() {
            return Ok(t.0.len());
        }
        Err(Error::Split {
            split_type: "CorpusSplit",
            message: format!("expected CorpusValue or TaggedValue, got {}", v.type_name()),
        })
    }
}

impl Splitter for CorpusSplit {
    fn name(&self) -> &'static str {
        "CorpusSplit"
    }

    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        let v = ctor_args.first().ok_or_else(|| Error::Constructor {
            split_type: "CorpusSplit",
            message: "expected a corpus argument".into(),
        })?;
        Ok(vec![Self::docs_of(v)? as i64])
    }

    fn info(&self, _arg: &DataValue, params: &Params) -> Result<RuntimeInfo> {
        Ok(RuntimeInfo {
            total_elements: params.first().copied().unwrap_or(0).max(0) as u64,
            // Documents are large; approximate 1 KiB per doc so batches
            // stay cache-sized.
            elem_size_bytes: 1024,
        })
    }

    fn split(
        &self,
        arg: &DataValue,
        range: Range<u64>,
        params: &Params,
    ) -> Result<Option<DataValue>> {
        let total = Self::docs_of(arg)?;
        let declared = params.first().copied().unwrap_or(0).max(0) as usize;
        if total != declared {
            return Err(Error::Split {
                split_type: "CorpusSplit",
                message: format!("corpus has {total} docs, split type says {declared}"),
            });
        }
        if range.start >= total as u64 {
            return Ok(None);
        }
        let start = range.start as usize;
        let end = (range.end as usize).min(total);
        if let Some(c) = arg.downcast_ref::<CorpusValue>() {
            return Ok(Some(DataValue::new(CorpusValue(Arc::new(
                c.0[start..end].to_vec(),
            )))));
        }
        if let Some(t) = arg.downcast_ref::<TaggedValue>() {
            return Ok(Some(DataValue::new(TaggedValue(Arc::new(
                t.0[start..end].to_vec(),
            )))));
        }
        unreachable!("docs_of validated the type");
    }

    fn merge(
        &self,
        pieces: Vec<DataValue>,
        _params: &Params,
        _total_elements: u64,
    ) -> Result<DataValue> {
        let first = pieces.first().ok_or_else(|| Error::Merge {
            split_type: "CorpusSplit",
            message: "no pieces".into(),
        })?;
        if first.downcast_ref::<CorpusValue>().is_some() {
            let mut out = Vec::new();
            for p in &pieces {
                let c = p
                    .downcast_ref::<CorpusValue>()
                    .ok_or_else(|| Error::Merge {
                        split_type: "CorpusSplit",
                        message: "mixed piece types".into(),
                    })?;
                out.extend(c.0.iter().cloned());
            }
            return Ok(DataValue::new(CorpusValue(Arc::new(out))));
        }
        let mut out = Vec::new();
        for p in &pieces {
            let t = p
                .downcast_ref::<TaggedValue>()
                .ok_or_else(|| Error::Merge {
                    split_type: "CorpusSplit",
                    message: "mixed piece types".into(),
                })?;
            out.extend(t.0.iter().cloned());
        }
        Ok(DataValue::new(TaggedValue(Arc::new(out))))
    }

    /// Document concatenation (no placement: documents are variably
    /// sized heap values; collect-and-extend is the natural merge).
    fn merge_strategy(&self) -> MergeStrategy {
        MergeStrategy::Concat { placement: None }
    }

    fn concat(&self) -> Option<Arc<dyn Concat>> {
        Some(Arc::new(CorpusSplit))
    }
}

impl Concat for CorpusSplit {
    fn concat(&self, values: &[DataValue]) -> Result<(DataValue, Vec<u64>)> {
        if values.is_empty() {
            return Err(Error::Merge {
                split_type: "CorpusSplit",
                message: "nothing to concatenate".into(),
            });
        }
        let mut offsets = Vec::with_capacity(values.len());
        let mut docs = 0u64;
        for v in values {
            offsets.push(docs);
            docs += Self::docs_of(v)? as u64;
        }
        let cat = Splitter::merge(self, values.to_vec(), &vec![docs as i64], docs)?;
        Ok((cat, offsets))
    }

    fn slice_back(&self, out: &DataValue, offset: u64, len: u64) -> Result<DataValue> {
        let total = Self::docs_of(out)?;
        let (offset, len) = (offset as usize, len as usize);
        if offset.checked_add(len).is_none_or(|e| e > total) {
            return Err(Error::Merge {
                split_type: "CorpusSplit",
                message: format!("slice [{offset}, {offset}+{len}) exceeds {total} docs"),
            });
        }
        if let Some(c) = out.downcast_ref::<CorpusValue>() {
            return Ok(DataValue::new(CorpusValue(Arc::new(
                c.0[offset..offset + len].to_vec(),
            ))));
        }
        if let Some(t) = out.downcast_ref::<TaggedValue>() {
            return Ok(DataValue::new(TaggedValue(Arc::new(
                t.0[offset..offset + len].to_vec(),
            ))));
        }
        unreachable!("docs_of validated the type");
    }
}

/// Register this integration's default split types. Idempotent.
pub fn register_defaults() {
    mozart_core::registry::register_default_splitter::<CorpusValue>(CorpusSplit::shared());
    mozart_core::registry::register_default_splitter::<TaggedValue>(CorpusSplit::shared());
    for a in annotations() {
        mozart_core::registry::register_annotation(a);
    }
}

/// Wrap a corpus as a Mozart argument.
pub fn corpus(c: &Corpus) -> DataValue {
    DataValue::new(CorpusValue(Arc::new(c.clone())))
}

/// Materialize a lazy tagged result.
pub fn get_tagged(f: &FutureHandle) -> Result<Vec<(TaggedDoc, DocFeatures)>> {
    let dv = f.get()?;
    dv.downcast_ref::<TaggedValue>()
        .map(|t| t.0.as_ref().clone())
        .ok_or(Error::ArgType {
            function: "sa_text::get_tagged",
            arg: 0,
            expected: "TaggedValue",
            actual: dv.type_name(),
        })
}

/// The Rust analogue of the Python decorator: annotate *any*
/// per-document corpus function so Mozart can split and parallelize it.
///
/// The function must be document-local (each output entry depends only
/// on the corresponding input document) — the SA correctness condition.
pub fn annotate_corpus_fn(
    name: &'static str,
    f: impl Fn(&[String]) -> Vec<(TaggedDoc, DocFeatures)> + Send + Sync + 'static,
) -> Arc<Annotation> {
    Annotation::new(name, move |inv: &Invocation<'_>| {
        let c = inv.arg::<CorpusValue>(0)?;
        Ok(Some(DataValue::new(TaggedValue(Arc::new(f(&c.0))))))
    })
    .arg("corpus", concrete(CorpusSplit::shared(), vec![0]))
    // Output entries are document-aligned with the input, so the result
    // carries the same CorpusSplit<docs> type.
    .ret(concrete(CorpusSplit::shared(), vec![0]))
    .build()
}

/// Annotated `tag_corpus`: the paper's Speech Tag workload body.
static TAG_CORPUS: LazyLock<Arc<Annotation>> = LazyLock::new(|| {
    Annotation::new("tag_corpus", |inv| {
        let c = inv.arg::<CorpusValue>(0)?;
        Ok(Some(DataValue::new(TaggedValue(Arc::new(
            textproc::tag_corpus(&c.0),
        )))))
    })
    .arg("corpus", concrete(CorpusSplit::shared(), vec![0]))
    .ret(concrete(CorpusSplit::shared(), vec![0]))
    .build()
});

/// Annotated part-of-speech tagging + feature extraction over a corpus.
pub fn tag_corpus(ctx: &MozartContext, c: &Corpus) -> Result<FutureHandle> {
    Ok(ctx
        .call(&TAG_CORPUS, &[Arg::Value(&corpus(c))])?
        .expect("returns"))
}

/// Every annotation this integration defines, in declaration order —
/// the walk surface for static tooling (`mozart-check`).
pub fn annotations() -> Vec<Arc<Annotation>> {
    vec![TAG_CORPUS.clone()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> MozartContext {
        register_defaults();
        let mut cfg = Config::with_workers(3);
        cfg.batch_override = Some(4);
        MozartContext::new(cfg)
    }

    #[test]
    fn split_merge_roundtrip() {
        let s = CorpusSplit;
        let c = textproc::synthetic_corpus(11, 8, 3);
        let arg = corpus(&c);
        let params = s.construct(&[&arg]).unwrap();
        assert_eq!(params, vec![11]);
        let p1 = s.split(&arg, 0..6, &params).unwrap().unwrap();
        let p2 = s.split(&arg, 6..11, &params).unwrap().unwrap();
        let merged = s.merge(vec![p1, p2], &params, 0).unwrap();
        assert_eq!(merged.downcast_ref::<CorpusValue>().unwrap().0.as_ref(), &c);
        assert!(s.split(&arg, 11..12, &params).unwrap().is_none());
    }

    #[test]
    fn tagging_matches_direct() {
        let c = ctx();
        let docs = textproc::synthetic_corpus(25, 30, 9);
        let fut = tag_corpus(&c, &docs).unwrap();
        let got = get_tagged(&fut).unwrap();
        let expect = textproc::tag_corpus(&docs);
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            assert_eq!(g.0, e.0);
            assert_eq!(g.1, e.1);
        }
    }

    #[test]
    fn corpus_of_one_document_still_works() {
        let c = ctx();
        let docs = vec!["the movie was really good".to_string()];
        let got = get_tagged(&tag_corpus(&c, &docs).unwrap()).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.adjectives, 1);
    }
}
