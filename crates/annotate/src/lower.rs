//! Lowering: each parsed `@splittable` becomes the [`Annotation`] that
//! an integration's builder chain would build, so `.sa` text and the
//! builtins pass through one rule set
//! ([`mozart_core::verify::check_annotation`]).
//!
//! A lowered annotation is checked, never run or registered. It carries
//! its `file:line` ([`Annotation::source`]), and its function body is an
//! error naming it. A split type name resolves through the caller's
//! table; a name missing there lowers to a placeholder
//! ([`Splitter::placeholder`]), whose merge strategy no rule can read.
//! Generic names become ids in order of first appearance (`S0`, `S1`, …),
//! and a constructor argument becomes the index of the annotated
//! argument it names. The names are leaked: a lowered annotation lives
//! as long as the checking process.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use mozart_core::annotation::{concrete, generic, missing, unknown, Annotation};
use mozart_core::{DataValue, Error, Params, Result, RuntimeInfo, Splitter};

use crate::ast::{AnnotationFile, TypeExpr};

/// Lower every annotated function of `file`, read from `path`, in
/// source order, resolving split type names through `known`.
pub fn lower(
    file: &AnnotationFile,
    path: &str,
    known: &HashMap<&str, Arc<dyn Splitter>>,
) -> Vec<Arc<Annotation>> {
    let path = leak(path);
    let split_type = |name: &str| match known.get(name) {
        Some(splitter) => splitter.clone(),
        None => Arc::new(Placeholder(leak(name))),
    };
    let lower_fn = |f: &crate::AnnotatedFn| {
        let (line, name) = (f.line, leak(&f.name));
        let mut b = Annotation::new(name, move |_| {
            let body = "is lowered from annotation text and has no body";
            Err(Error::Library(format!("{path}:{line}: {name} {body}")))
        })
        .source(path, line);
        let mut generics = Vec::new();
        let mut expr = |ty: &TypeExpr| match ty {
            TypeExpr::Concrete { name, ctor_args } => {
                let ctor = ctor_args.iter().filter_map(|a| f.arg_index(a));
                concrete(split_type(name), ctor.collect())
            }
            TypeExpr::Generic(g) => match generics.iter().position(|n| n == g) {
                Some(id) => generic(id as u32),
                None => {
                    generics.push(g.clone());
                    generic(generics.len() as u32 - 1)
                }
            },
            TypeExpr::Missing => missing(),
            TypeExpr::Unknown => unknown(split_type("unknown")),
        };
        for a in &f.args {
            let (arg, ty) = (leak(&a.name), expr(&a.ty));
            b = if a.mutable {
                b.mut_arg(arg, ty)
            } else {
                b.arg(arg, ty)
            };
        }
        if let Some(ret) = &f.ret {
            b = b.ret(expr(ret));
        }
        b.build()
    };
    file.functions.iter().map(lower_fn).collect()
}

fn leak(s: &str) -> &'static str {
    Box::leak(s.into())
}

/// A split type known by its name alone.
struct Placeholder(&'static str);

impl Placeholder {
    fn no_body<T>(&self) -> Result<T> {
        Err(Error::Library(format!(
            "split type {} is a name only",
            self.0
        )))
    }
}

impl Splitter for Placeholder {
    fn name(&self) -> &'static str {
        self.0
    }

    fn construct(&self, _: &[&DataValue]) -> Result<Params> {
        self.no_body()
    }

    fn info(&self, _: &DataValue, _: &Params) -> Result<RuntimeInfo> {
        self.no_body()
    }

    fn split(&self, _: &DataValue, _: Range<u64>, _: &Params) -> Result<Option<DataValue>> {
        self.no_body()
    }

    fn merge(&self, _: Vec<DataValue>, _: &Params, _: u64) -> Result<DataValue> {
        self.no_body()
    }

    fn placeholder(&self) -> bool {
        true
    }
}
