//! # mozart-annotate — the SA parser, checker and wrapper generator
//!
//! The Rust analogue of the paper's `annotate` command-line tool
//! (§4.1): "An annotator registers split types, the splitting API, and
//! SAs over C++ functions by using a command line tool we have built
//! called annotate. This tool takes these definitions as input and
//! generates namespaced wrapper functions around each annotated library
//! function."
//!
//! The [`parser`] accepts the paper's annotation syntax (Listing 3):
//! `splittype` declarations, constructor mappings, and
//! `@splittable(...)` SAs over C-style declarations. The [`codegen`]
//! emits a Rust wrapper module in the same style as the hand-written
//! `sa-*` crates.
//!
//! A file is checked in two passes, which [`check_source`] runs
//! together:
//!
//! * [`check()`] resolves names: declarations, constructors, argument
//!   names, and the §7.1 lint that a split type is always applied to one
//!   C type. These have no runtime counterpart.
//! * [`lower()`] turns each `@splittable` into a
//!   [`mozart_core::Annotation`], which the same
//!   [`check_annotation`] and [`lint_annotation`] that check the
//!   builtins then check against the paper's §3 typing rules.

#![warn(missing_docs)]

pub mod ast;
pub mod check;
pub mod codegen;
pub mod lower;
pub mod parser;

pub use ast::{AnnotatedFn, AnnotationFile, TypeExpr};
pub use check::{check, Diagnostic};
pub use codegen::generate;
pub use lower::lower;
pub use parser::{parse, ParseError};

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use mozart_core::{check_annotation, lint_annotation, Annotation, SplitTypeExpr, Splitter};

/// Check the `.sa` source `src`, read from `path`: resolve its names,
/// lower it and run the builtins' rules over each annotation. Returns
/// every finding in line order (a parse error is the only finding of a
/// file that does not parse); `mozart-check` prints each as
/// `{path}:{diagnostic}`, that is `path:line: message`.
pub fn check_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let file = match parse(src) {
        Ok(file) => file,
        Err(e) => return vec![Diagnostic::error(e.line, e.message)],
    };
    let mut out = check(&file);
    let mut builtins = HashMap::new();
    workloads::register_all_defaults();
    for annot in mozart_core::registry::registered_annotations() {
        for splitter in split_types(&annot) {
            builtins.entry(splitter.name()).or_insert(splitter.clone());
        }
    }
    let mut placeholders = HashSet::new();
    for annot in lower(&file, path, &builtins) {
        let line = annot.source.map_or(0, |(_, line)| line);
        for splitter in split_types(&annot).filter(|s| s.placeholder()) {
            if placeholders.insert(splitter.name()) {
                out.push(Diagnostic {
                    line,
                    message: format!(
                        "split type {} is referenced by no builtin: its merge \
                         strategy is not checkable from the text",
                        splitter.name()
                    ),
                    note: true,
                });
            }
        }
        // An error names its annotation after `path:line: `, which the
        // diagnostic keeps apart.
        let at = format!("{path}:{line}: ");
        for err in check_annotation(&annot)
            .into_iter()
            .chain(lint_annotation(&annot))
        {
            let text = err.to_string();
            let message = text.strip_prefix(&at).unwrap_or(&text).to_string();
            out.push(Diagnostic::error(line, message));
        }
    }
    out.sort_by_key(|d| d.line);
    out
}

/// The concrete split types of an annotation's arguments and return.
fn split_types(annot: &Annotation) -> impl Iterator<Item = &Arc<dyn Splitter>> {
    let types = annot.args.iter().map(|a| &a.ty).chain(&annot.ret);
    types.filter_map(|ty| match ty {
        SplitTypeExpr::Concrete { splitter, .. } => Some(splitter),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistency_check_accepts_uniform_use() {
        let src = r#"
            @splittable(size: SizeSplit(size), mut a: ArraySplit(size))
            void f(long size, double *a);
            @splittable(size: SizeSplit(size), mut b: ArraySplit(size))
            void g(long size, double *b);
        "#;
        let file = parse(src).unwrap();
        assert!(check(&file).is_empty());
    }

    #[test]
    fn consistency_check_rejects_mixed_use() {
        let src = r#"
            @splittable(mut a: ArraySplit(a))
            void f(double *a);
            @splittable(mut b: ArraySplit(b))
            void g(long b);
            @splittable(c: ArraySplit(c))
            void h(long c);
        "#;
        let file = parse(src).unwrap();
        let d = check(&file);
        assert_eq!(d.len(), 2, "every finding, not the first: {d:?}");
        assert_eq!((d[0].line, d[1].line), (4, 6));
        assert!(d[0].message.contains("ArraySplit"), "{}", d[0].message);
        assert!(d[0].message.contains("line 2"), "{}", d[0].message);
    }
}
