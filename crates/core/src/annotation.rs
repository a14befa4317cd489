//! Split annotations (§3.2) — the metadata an annotator attaches to an
//! unmodified, side-effect-free library function.
//!
//! An [`Annotation`] corresponds to one `@splittable(...)` declaration
//! (Listing 3): it names each argument, marks mutability, assigns each
//! argument and the return value a [`SplitTypeExpr`], and carries the
//! black-box function itself as a callable.
//!
//! The split types an expression names implement the **v2 splitting
//! API** ([`crate::split`]): the core
//! [`Splitter`] methods (`construct`/`info`/`split`/`merge`) plus the
//! single [`merge_strategy`](crate::split::Splitter::merge_strategy)
//! capability probe, which tells the runtime how pieces merge
//! (concatenation, which may be placement-capable, or a custom fold) —
//! the planner reads `terminal` from it to end stages at partial
//! results, and the executor reads the optional placement capability
//! from it. See the [`crate::split`] module docs.

use std::hash::Hasher;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::graph::WordHasher;
use crate::split::Splitter;
use crate::value::{DataObject, DataValue};

/// Identifier of a generic split type variable within one annotation
/// (the paper's `S`; names are local to an SA, §3.2 "Generics").
pub type GenericId = u32;

/// The split type expression assigned to an argument or return value.
#[derive(Clone)]
#[allow(missing_docs)] // variant docs describe the fields
pub enum SplitTypeExpr {
    /// A named split type with a constructor. `ctor_args` are the indices
    /// of the annotated function's arguments fed to the constructor
    /// (the paper's `Name(A0...An)` syntax).
    Concrete {
        splitter: Arc<dyn Splitter>,
        ctor_args: Vec<usize>,
    },
    /// A generic split type variable (`S`).
    Generic(GenericId),
    /// The "missing" split type `_`: the argument is not split but copied
    /// (pointer-copied) to each pipeline.
    Missing,
    /// The `unknown` split type (return position only): the result's
    /// split type is a fresh unique type. `merger` defines how the pieces
    /// a stage produced are merged into the final value.
    Unknown { merger: Arc<dyn Splitter> },
}

impl std::fmt::Debug for SplitTypeExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SplitTypeExpr::Concrete {
                splitter,
                ctor_args,
            } => {
                write!(f, "{}({:?})", splitter.name(), ctor_args)
            }
            SplitTypeExpr::Generic(g) => write!(f, "S{g}"),
            SplitTypeExpr::Missing => write!(f, "_"),
            SplitTypeExpr::Unknown { .. } => write!(f, "unknown"),
        }
    }
}

/// One annotated argument.
#[derive(Clone, Debug)]
pub struct ArgSpec {
    /// Name assigned in the SA (used by constructors and diagnostics).
    pub name: &'static str,
    /// Whether the function mutates this argument (`mut` tag). Mozart
    /// uses this to add data-dependency edges (§4).
    pub mutable: bool,
    /// The argument's split type.
    pub ty: SplitTypeExpr,
}

/// Arguments handed to the black-box function for one batch.
///
/// Pieces appear in the same order as the annotation's arguments;
/// `_`-typed arguments receive the original unsplit value. The pieces
/// are borrowed from the runtime for the length of the call; a function
/// that returns or keeps one clones its handle.
pub struct Invocation<'a> {
    /// The annotated function's name (for diagnostics).
    pub function: &'static str,
    /// Argument pieces for this batch.
    pub args: &'a [&'a DataValue],
}

impl<'a> Invocation<'a> {
    /// Downcast argument `i` to a concrete library type.
    pub fn arg<T: DataObject>(&self, i: usize) -> Result<&'a T> {
        let v = self.args.get(i).ok_or_else(|| Error::ArgCount {
            function: self.function,
            expected: i + 1,
            actual: self.args.len(),
        })?;
        v.downcast_ref::<T>().ok_or_else(|| Error::ArgType {
            function: self.function,
            arg: i,
            expected: std::any::type_name::<T>(),
            actual: v.type_name(),
        })
    }

    /// Extract an `i64` scalar argument.
    pub fn int(&self, i: usize) -> Result<i64> {
        Ok(self.arg::<crate::value::IntValue>(i)?.0)
    }

    /// Extract an `f64` scalar argument.
    pub fn float(&self, i: usize) -> Result<f64> {
        Ok(self.arg::<crate::value::FloatValue>(i)?.0)
    }
}

/// The black-box callable: receives one batch of argument pieces and
/// optionally returns a result piece.
pub type LibFn = Arc<dyn Fn(&Invocation<'_>) -> Result<Option<DataValue>> + Send + Sync>;

/// A split annotation over one library function.
pub struct Annotation {
    /// Function name (diagnostics, logging, error messages).
    pub name: &'static str,
    /// Argument specifications, in call order.
    pub args: Vec<ArgSpec>,
    /// Split type of the return value, if the function returns one.
    pub ret: Option<SplitTypeExpr>,
    /// The function itself.
    pub func: LibFn,
    /// The `.sa` file and 1-based line the annotation was lowered from,
    /// if it was (see [`AnnotationBuilder::source`]). Diagnostics over
    /// the annotation name it; the planner never reads it, so it is not
    /// part of the signature.
    pub source: Option<(&'static str, usize)>,
    /// Hash of everything the planner reads from the annotation — the
    /// name, each argument's mutability and split type expression, the
    /// return expression — computed once by
    /// [`AnnotationBuilder::build`], so fingerprinting a captured call
    /// costs one word instead of a walk over its split types.
    pub(crate) signature: u64,
    /// Per argument: an earlier argument whose concrete split type
    /// expression — split type and constructor arguments — it repeats
    /// (`ArraySplit(size)` for every array of an MKL-style call), so a
    /// call run at registration constructs that split type once.
    pub(crate) split_like: Vec<Option<usize>>,
    /// The first violation of the paper's typing rules
    /// ([`check_annotation`](crate::verify::check_annotation)), found
    /// once by [`AnnotationBuilder::build`]: a call of an unsound
    /// annotation is refused at registration without checking it again.
    pub(crate) unsound: Option<crate::verify::VerifyError>,
    /// What the shape of a call of this annotation reads of its
    /// arguments, and the key its decisions are kept under (see "Calls
    /// below the work floor" in [`crate::context`]).
    pub(crate) floor: crate::floor::CallShape,
}

impl Annotation {
    /// Start building an annotation for `name` wrapping `func`.
    /// Returns the builder, not `Self`; finish with
    /// [`AnnotationBuilder::build`].
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        name: &'static str,
        func: impl Fn(&Invocation<'_>) -> Result<Option<DataValue>> + Send + Sync + 'static,
    ) -> AnnotationBuilder {
        AnnotationBuilder {
            name,
            args: Vec::new(),
            ret: None,
            func: Arc::new(func),
            source: None,
        }
    }

    /// Index of the argument named `name`, if any.
    pub fn arg_index(&self, name: &str) -> Option<usize> {
        self.args.iter().position(|a| a.name == name)
    }
}

impl std::fmt::Debug for Annotation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "@splittable(")?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if a.mutable {
                write!(f, "mut ")?;
            }
            write!(f, "{}: {:?}", a.name, a.ty)?;
        }
        write!(f, ")")?;
        if let Some(r) = &self.ret {
            write!(f, " -> {r:?}")?;
        }
        write!(f, " {}", self.name)
    }
}

/// Builder for [`Annotation`].
pub struct AnnotationBuilder {
    name: &'static str,
    args: Vec<ArgSpec>,
    ret: Option<SplitTypeExpr>,
    func: LibFn,
    source: Option<(&'static str, usize)>,
}

impl AnnotationBuilder {
    /// Add an immutable argument.
    pub fn arg(mut self, name: &'static str, ty: SplitTypeExpr) -> Self {
        self.args.push(ArgSpec {
            name,
            mutable: false,
            ty,
        });
        self
    }

    /// Add a mutable (`mut`) argument.
    pub fn mut_arg(mut self, name: &'static str, ty: SplitTypeExpr) -> Self {
        self.args.push(ArgSpec {
            name,
            mutable: true,
            ty,
        });
        self
    }

    /// Set the return value's split type.
    pub fn ret(mut self, ty: SplitTypeExpr) -> Self {
        self.ret = Some(ty);
        self
    }

    /// Record the `.sa` file and line the annotation was written at.
    pub fn source(mut self, file: &'static str, line: usize) -> Self {
        self.source = Some((file, line));
        self
    }

    /// Finish, producing a shareable annotation.
    pub fn build(self) -> Arc<Annotation> {
        let mut h = WordHasher::default();
        h.bytes(self.name.as_bytes());
        for a in &self.args {
            h.word(a.mutable as u64);
            hash_expr(&mut h, &a.ty);
        }
        match &self.ret {
            Some(expr) => hash_expr(&mut h, expr),
            None => h.word(0),
        }
        let split_like = self.args.iter().enumerate().map(|(i, a)| {
            let expr = concrete_expr(a)?;
            self.args[..i]
                .iter()
                .position(|b| concrete_expr(b) == Some(expr))
        });
        let floor = crate::floor::CallShape::new(&self.args, self.ret.as_ref());
        let mut annot = Annotation {
            name: self.name,
            split_like: split_like.collect(),
            args: self.args,
            ret: self.ret,
            func: self.func,
            source: self.source,
            signature: h.finish(),
            unsound: None,
            floor,
        };
        annot.unsound = crate::verify::check_annotation(&annot).into_iter().next();
        Arc::new(annot)
    }
}

/// An argument's concrete split type expression: the split type's name
/// and its constructor arguments.
fn concrete_expr(arg: &ArgSpec) -> Option<(&'static str, &[usize])> {
    match &arg.ty {
        SplitTypeExpr::Concrete {
            splitter,
            ctor_args,
        } => Some((splitter.name(), ctor_args)),
        _ => None,
    }
}

fn hash_expr(h: &mut WordHasher, expr: &SplitTypeExpr) {
    match expr {
        SplitTypeExpr::Concrete {
            splitter,
            ctor_args,
        } => {
            h.word(0x10);
            h.bytes(splitter.name().as_bytes());
            h.word(ctor_args.len() as u64);
            for a in ctor_args {
                h.word(*a as u64);
            }
        }
        SplitTypeExpr::Generic(g) => {
            h.word(0x20);
            h.word(u64::from(*g));
        }
        SplitTypeExpr::Missing => h.word(0x30),
        SplitTypeExpr::Unknown { merger } => {
            h.word(0x40);
            h.bytes(merger.name().as_bytes());
        }
    }
}

/// Shorthand for a concrete split type expression.
///
/// `ctor_args` are argument *names*, resolved against the argument list
/// at build time by the annotation tool, or indices via
/// [`SplitTypeExpr::Concrete`] directly.
pub fn concrete(splitter: Arc<dyn Splitter>, ctor_args: Vec<usize>) -> SplitTypeExpr {
    SplitTypeExpr::Concrete {
        splitter,
        ctor_args,
    }
}

/// Shorthand for a generic split type variable.
pub fn generic(id: GenericId) -> SplitTypeExpr {
    SplitTypeExpr::Generic(id)
}

/// Shorthand for the missing split type `_`.
pub fn missing() -> SplitTypeExpr {
    SplitTypeExpr::Missing
}

/// Shorthand for the `unknown` split type with the given merger.
pub fn unknown(merger: Arc<dyn Splitter>) -> SplitTypeExpr {
    SplitTypeExpr::Unknown { merger }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::SizeSplit;
    use crate::value::IntValue;

    #[test]
    fn builder_roundtrip() {
        let a = Annotation::new("f", |_inv| Ok(None))
            .arg("size", concrete(Arc::new(SizeSplit), vec![0]))
            .mut_arg("out", generic(0))
            .build();
        assert_eq!(a.name, "f");
        assert_eq!(a.args.len(), 2);
        assert!(!a.args[0].mutable);
        assert!(a.args[1].mutable);
        assert_eq!(a.arg_index("out"), Some(1));
        assert_eq!(a.arg_index("nope"), None);
        let dbg = format!("{a:?}");
        assert!(dbg.contains("mut out"));
        assert!(dbg.contains("SizeSplit"));
    }

    #[test]
    fn repeated_split_expressions_point_at_their_first_use() {
        // The MKL idiom: every array split by `ArraySplit(size)`.
        let array = || concrete(Arc::new(crate::ArraySplit), vec![0]);
        let a = Annotation::new("f", |_inv| Ok(None))
            .arg("size", concrete(Arc::new(SizeSplit), vec![0]))
            .arg("a", array())
            .arg("k", missing())
            .arg("b", array())
            .mut_arg("out", array())
            .arg("c", concrete(Arc::new(crate::ArraySplit), vec![2]))
            .build();
        assert_eq!(
            a.split_like,
            [None, None, None, Some(1), Some(1), None],
            "same type and constructor arguments only"
        );
    }

    #[test]
    fn signature_covers_what_the_planner_reads() {
        let build = |name, mutable: bool, ctor: usize, ret: Option<SplitTypeExpr>| {
            let xs = concrete(Arc::new(SizeSplit), vec![ctor]);
            let b = Annotation::new(name, |_inv| Ok(None));
            let b = if mutable {
                b.mut_arg("xs", xs)
            } else {
                b.arg("xs", xs)
            };
            let b = b.arg("n", missing());
            match ret {
                Some(r) => b.ret(r).build().signature,
                None => b.build().signature,
            }
        };
        let base = build("f", true, 1, None);
        assert_eq!(base, build("f", true, 1, None), "rebuilt alike: equal");
        for other in [
            build("g", true, 1, None),
            build("f", false, 1, None),
            build("f", true, 0, None),
            build("f", true, 1, Some(generic(0))),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn invocation_downcasts_and_reports_errors() {
        let five = DataValue::new(IntValue(5));
        let inv = Invocation {
            function: "f",
            args: &[&five],
        };
        assert_eq!(inv.int(0).unwrap(), 5);
        match inv.float(0) {
            Err(Error::ArgType {
                function,
                arg,
                expected,
                actual,
            }) => {
                assert_eq!(function, "f");
                assert_eq!(arg, 0);
                assert_eq!(expected, std::any::type_name::<crate::value::FloatValue>());
                assert_eq!(actual, five.type_name());
            }
            other => panic!("expected ArgType error, got {other:?}"),
        }
        match inv.int(3) {
            Err(Error::ArgCount {
                function,
                expected,
                actual,
            }) => assert_eq!((function, expected, actual), ("f", 4, 1)),
            other => panic!("expected ArgCount error, got {other:?}"),
        }
    }
}
