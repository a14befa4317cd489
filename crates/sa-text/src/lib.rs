//! # sa-text — split annotations for the `textproc` library
//!
//! The annotator-side integration for the spaCy stand-in (§7 "spaCy"):
//! "We added a split type that uses spaCy's builtin minibatch tokenizer
//! to split a corpus of text. This allows any function (including
//! user-defined ones) that accepts text and internally uses spaCy
//! functions to be parallelized and pipelined."
//!
//! [`CorpusSplit`] splits a corpus by documents; it is a row-band split
//! type whose rows are documents, and its values are zero-copy views of
//! shared documents (see [`split`]). [`annotate_corpus_fn`]
//! is the Rust analogue of the Python decorator: hand it *any*
//! per-document function and it becomes a parallelizable annotated
//! call. The `textproc` crate itself is not modified.

#![warn(missing_docs)]

pub mod split;

use std::sync::{Arc, LazyLock};

use mozart_core::annotation::concrete;
use mozart_core::prelude::*;
use textproc::{Corpus, DocFeatures, TaggedDoc};

pub use split::{CorpusSplit, CorpusValue, TaggedValue};

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
    DataValue::new(CorpusValue::new(c.clone()))
}

/// Materialize a lazy tagged result.
pub fn get_tagged(f: &FutureHandle) -> Result<Vec<(TaggedDoc, DocFeatures)>> {
    let dv = f.get()?;
    dv.downcast_ref::<TaggedValue>()
        .map(|t| t.docs().to_vec())
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
        Ok(Some(DataValue::new(TaggedValue::new(f(c.docs())))))
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
        Ok(Some(DataValue::new(TaggedValue::new(
            textproc::tag_corpus(c.docs()),
        ))))
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
        assert_eq!(merged.downcast_ref::<CorpusValue>().unwrap().docs(), &c);
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
