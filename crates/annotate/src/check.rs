//! Name resolution over a parsed annotation file: the checks of a `.sa`
//! file that have no runtime counterpart, since a built
//! [`mozart_core::Annotation`] keeps no declarations, no argument names
//! to repeat and no C types:
//!
//! * `splittype` declarations are unique and used;
//! * every constructor targets a declared split type, with its arity;
//! * argument names within one `@splittable` are unique;
//! * every constructor argument names an annotated argument (a
//!   declared parameter that the `@splittable` types);
//! * the §7.1 lint: a split type is always applied to parameters of one
//!   C type ("the annotate tool ... will ensure that a split type is
//!   always associated with the same concrete type").
//!
//! The paper's §3 typing rules are not here: [`crate::check_source`]
//! lowers each annotation ([`crate::lower()`]) and runs the
//! [`mozart_core::verify::check_annotation`] that checks the builtins.
//! Diagnostics carry the 1-based source line.

use std::collections::{HashMap, HashSet};

use crate::ast::{AnnotationFile, TypeExpr};

/// One finding, anchored to a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// 1-based line the finding anchors to.
    pub line: usize,
    /// Human-readable description of the defect.
    pub message: String,
    /// A rule the text cannot decide, reported without failing the file.
    pub note: bool,
}

impl Diagnostic {
    /// A finding that fails the file.
    pub fn error(line: usize, message: String) -> Self {
        Diagnostic {
            line,
            message,
            note: false,
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let note = if self.note { "note: " } else { "" };
        write!(f, "{}: {note}{}", self.line, self.message)
    }
}

/// Run every name-resolution check over `file`, returning all findings
/// in source order. An empty vector means every name resolves.
pub fn check(file: &AnnotationFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_split_type_decls(file, &mut out);
    check_functions(file, &mut out);
    out.sort_by_key(|d| d.line);
    out
}

fn check_split_type_decls(file: &AnnotationFile, out: &mut Vec<Diagnostic>) {
    // Duplicate declarations.
    let mut seen: HashMap<&str, usize> = HashMap::new();
    for st in &file.split_types {
        if let Some(first) = seen.get(st.name.as_str()) {
            out.push(Diagnostic::error(
                st.line,
                format!(
                    "duplicate splittype declaration `{}` (first declared on line {first})",
                    st.name
                ),
            ));
        } else {
            seen.insert(&st.name, st.line);
        }
    }

    let arity: HashMap<&str, usize> = file
        .split_types
        .iter()
        .map(|st| (st.name.as_str(), st.params.len()))
        .collect();

    // Constructors must target a declared split type with matching arity.
    for ctor in &file.constructors {
        match arity.get(ctor.name.as_str()) {
            None => out.push(Diagnostic::error(
                ctor.line,
                format!("constructor for undeclared splittype `{}`", ctor.name),
            )),
            Some(n) if *n != ctor.exprs.len() => out.push(Diagnostic::error(
                ctor.line,
                format!(
                    "constructor for `{}` produces {} parameter(s), but the \
                     splittype declares {n}",
                    ctor.name,
                    ctor.exprs.len()
                ),
            )),
            Some(_) => {}
        }
    }

    // Dead declarations: never named by a constructor or a type expr.
    let mut used: HashSet<&str> = file.constructors.iter().map(|c| c.name.as_str()).collect();
    for f in &file.functions {
        for ty in f.args.iter().map(|a| &a.ty).chain(&f.ret) {
            if let TypeExpr::Concrete { name, .. } = ty {
                used.insert(name);
            }
        }
    }
    for st in &file.split_types {
        if !used.contains(st.name.as_str()) {
            out.push(Diagnostic::error(
                st.line,
                format!(
                    "splittype `{}` is declared but never used by a constructor \
                     or annotation",
                    st.name
                ),
            ));
        }
    }
}

fn check_functions(file: &AnnotationFile, out: &mut Vec<Diagnostic>) {
    // Per split type: the C type it was first applied to, and where.
    let mut ctypes: HashMap<&str, (&str, usize)> = HashMap::new();
    for f in &file.functions {
        // Unique argument names.
        let mut names: HashSet<&str> = HashSet::new();
        for a in &f.args {
            if !names.insert(&a.name) {
                out.push(Diagnostic::error(
                    a.line,
                    format!("{}: duplicate annotated argument `{}`", f.name, a.name),
                ));
            }
        }

        let positions = f.args.iter().map(|a| (a.line, Some(a), &a.ty));
        for (line, arg, ty) in positions.chain(f.ret.iter().map(|r| (f.line, None, r))) {
            let TypeExpr::Concrete { name, ctor_args } = ty else {
                continue;
            };
            // Only annotated arguments reach a constructor at run time.
            for ca in ctor_args.iter().filter(|ca| f.arg_index(ca).is_none()) {
                out.push(Diagnostic::error(
                    line,
                    format!(
                        "{}: constructor argument `{ca}` of {name} does not \
                         name an annotated argument",
                        f.name
                    ),
                ));
            }
            let Some(param) = arg.and_then(|a| f.params.iter().find(|p| p.name == a.name)) else {
                continue;
            };
            let (ctype, first) = *ctypes.entry(name).or_insert((&param.ctype, line));
            if ctype != param.ctype {
                out.push(Diagnostic::error(
                    line,
                    format!(
                        "{}: split type {name} applied to parameter `{}` of C type \
                         {:?}, but to {ctype:?} on line {first}; a split type is \
                         always associated with one concrete type",
                        f.name, param.name, param.ctype
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{check_source, Diagnostic};

    fn diags(src: &str) -> Vec<Diagnostic> {
        check_source("test.sa", src)
    }

    #[test]
    fn listing_2_is_clean() {
        let src = r#"
            @splittable(
                size: SizeSplit(size), a: ArraySplit(size),
                mut out: ArraySplit(size))
            void vdLog1p(long size, double *a, double *out);
        "#;
        assert!(diags(src).is_empty());
    }

    #[test]
    fn ctor_arg_naming_mut_position_is_flagged_with_line() {
        let src = "@splittable(mut out: ArraySplit(out))\nvoid scale(double *out);\n";
        let d = diags(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
        assert!(d[0].message.contains("mut argument 0"), "{}", d[0].message);
    }

    #[test]
    fn unknown_argument_is_flagged() {
        let src = "@splittable(x: unknown)\nvoid f(double *x);\n";
        let d = diags(src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("unknown"), "{}", d[0].message);
    }

    #[test]
    fn unbound_return_generic_is_flagged() {
        let src = "@splittable(x: _) -> S\ndouble f(double x);\n";
        let d = diags(src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("generic S0"), "{}", d[0].message);
    }

    #[test]
    fn duplicate_and_dead_splittypes_are_flagged() {
        let src =
            "splittype A(int);\nsplittype A(int);\nsplittype Dead(int);\nA(size) => (size);\n";
        let d = diags(src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("duplicate"), "{}", d[0].message);
        assert_eq!(d[0].line, 2);
        assert!(d[1].message.contains("never used"), "{}", d[1].message);
        assert_eq!(d[1].line, 3);
    }

    #[test]
    fn constructor_arguments_name_annotated_arguments() {
        let d = diags("@splittable(a: ArraySplit(n))\nvoid f(double *a, long n);\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("`n` of ArraySplit does not name"),
            "{d:?}"
        );
    }

    #[test]
    fn constructor_arity_mismatch_is_flagged() {
        let src = "splittype M(int, int);\nM(m) => (m.rows);\n";
        let d = diags(src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("declares 2"), "{}", d[0].message);
    }
}
