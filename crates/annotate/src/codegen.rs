//! Rust wrapper generation — the output side of the paper's `annotate`
//! tool (§4.1): "generates namespaced C++ wrapper functions around each
//! annotated library function ... packaged with the splitting API and a
//! lookup table".
//!
//! Here the emitted code is a Rust module using `mozart_core`'s builder
//! API, matching the hand-written wrappers in the `sa-*` crates.

use std::collections::HashMap;

use mozart_core::{Annotation, SplitTypeExpr};

use crate::ast::{AnnotatedFn, AnnotationFile};

/// Generate a Rust wrapper module for a parsed annotation file,
/// targeting the **splitting API v2**: declared split types become
/// skeleton `Splitter` impls with the single `merge_strategy`
/// capability probe (instead of the removed v1 boolean probes and
/// merge variants), and the three-argument `merge` that always
/// receives the merged element total as a size hint.
pub fn generate(file: &AnnotationFile, module_doc: &str) -> String {
    let mut out = format!(
        r#"//! {module_doc}
//! Generated by the `annotate` tool — do not edit.

use std::sync::{{Arc, LazyLock}};
use mozart_core::annotation::{{concrete, generic, missing, unknown}};
use mozart_core::prelude::*;

"#
    );
    for st in &file.split_types {
        out += &generate_split_type(&st.name, &st.params, file);
        out.push('\n');
    }
    // The builder chains print the lowered annotations, so generic ids and
    // constructor indices are resolved where the checker resolves them.
    let annots = crate::lower(file, "", &HashMap::new());
    for (f, annot) in file.functions.iter().zip(&annots) {
        out += &generate_fn(f, annot);
        out.push('\n');
    }
    out
}

/// Skeleton v2 `Splitter` impl for one declared split type: the five
/// core methods plus the `merge_strategy` capability probe, followed by
/// a skeleton `Concat` capability impl — the `concat`/`slice_back` pair
/// that lets the serving layer coalesce requests into one evaluation
/// over concatenated inputs. The annotator fills the `todo!()` bodies
/// and picks the strategy variant that matches the type's merge
/// semantics (and, for concatenations, optionally implements
/// `Placement` and wires up the `Concat` skeleton, or deletes it).
fn generate_split_type(name: &str, params: &[String], file: &AnnotationFile) -> String {
    let params = params.join(", ");
    let ctors: String = file
        .constructors
        .iter()
        .filter(|c| c.name == *name)
        .map(|c| {
            let (args, exprs) = (c.args.join(", "), c.exprs.join(", "));
            format!("        // constructor {name}({args}) => ({exprs})\n")
        })
        .collect();
    format!(
        r#"/// Split type `{name}<{params}>` (generated v2 skeleton).
pub struct {name};

impl Splitter for {name} {{
    fn name(&self) -> &'static str {{
        "{name}"
    }}

    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {{
{ctors}        // TODO: map the constructor arguments to ({params}).
        let _ = ctor_args;
        todo!()
    }}

    fn info(&self, arg: &DataValue, params: &Params) -> Result<RuntimeInfo> {{
        // TODO: report total_elements and elem_size_bytes.
        let _ = (arg, params);
        todo!()
    }}

    fn split(
        &self,
        arg: &DataValue,
        range: std::ops::Range<u64>,
        params: &Params,
    ) -> Result<Option<DataValue>> {{
        // TODO: return the piece covering `range`, or Ok(None) past the end.
        let _ = (arg, range, params);
        todo!()
    }}

    fn merge(
        &self,
        pieces: Vec<DataValue>,
        params: &Params,
        total_elements: u64,
    ) -> Result<DataValue> {{
        // TODO: merge in element order; `total_elements` is the size hint.
        let _ = (pieces, params, total_elements);
        todo!()
    }}

    fn merge_strategy(&self) -> MergeStrategy {{
        // TODO: pick the capability descriptor — Concat {{ placement }}
        // for concatenation, in-place views included (placement enables
        // the zero-copy merge; also consider implementing `Concat` via
        // `Splitter::concat` so the serving layer can coalesce requests),
        // Custom {{ terminal }} otherwise (terminal: true for reductions).
        MergeStrategy::Custom {{ terminal: false }}
    }}

    fn concat(&self) -> Option<Arc<dyn Concat>> {{
        // TODO: for concatenation types, return
        // Some(Arc::new({name}Concat)) once the skeleton below is
        // implemented; keeping None disables request coalescing for
        // this type.
        None
    }}
}}

/// `Concat` capability for `{name}` (generated v2 skeleton).
///
/// Implement when values of this split type concatenate end to
/// end, then return it from `Splitter::concat`; delete it (keeping
/// the default `None`) otherwise.
pub struct {name}Concat;

impl Concat for {name}Concat {{
    fn concat(&self, values: &[DataValue]) -> Result<(DataValue, Vec<u64>)> {{
        // TODO: concatenate end to end and report each input's starting
        // element offset (offsets[0] == 0, nondecreasing).
        let _ = values;
        todo!()
    }}

    fn slice_back(&self, out: &DataValue, offset: u64, len: u64) -> Result<DataValue> {{
        // TODO: return elements [offset, offset + len) as a standalone
        // value (a zero-copy view where the data type supports one).
        let _ = (out, offset, len);
        todo!()
    }}
}}
"#
    )
}

/// The builder expression of a lowered split type expression.
fn expr_code(ty: &SplitTypeExpr) -> String {
    match ty {
        SplitTypeExpr::Concrete {
            splitter,
            ctor_args,
        } => {
            let idxs: Vec<String> = ctor_args.iter().map(usize::to_string).collect();
            let splitter = snake(splitter.name());
            format!("concrete({splitter}_splitter(), vec![{}])", idxs.join(", "))
        }
        SplitTypeExpr::Generic(g) => format!("generic({g})"),
        SplitTypeExpr::Missing => "missing()".to_string(),
        SplitTypeExpr::Unknown { .. } => {
            "unknown(/* TODO: merger for the unknown result */ todo_merger())".to_string()
        }
    }
}

/// The annotation (a `LazyLock` over the builder chain) and the public
/// wrapper stub for one function.
fn generate_fn(f: &AnnotatedFn, annot: &Annotation) -> String {
    let (name, upper) = (&f.name, f.name.to_uppercase());
    let mut chain = String::new();
    for a in &annot.args {
        let method = if a.mutable { "mut_arg" } else { "arg" };
        chain += &format!("    .{method}(\"{}\", {})\n", a.name, expr_code(&a.ty));
    }
    if let Some(r) = &annot.ret {
        chain += &format!("    .ret({})\n", expr_code(r));
    }
    let names: Vec<&str> = f.params.iter().map(|p| p.name.as_str()).collect();
    let (mut params, mut args) = (String::new(), String::new());
    for p in &f.params {
        let (arg, (ty, variant)) = (snake(&p.name), rust_param(&p.ctype));
        params += &format!(", {arg}: {ty}");
        args += &format!("        Arg::{variant}({arg}), // {}\n", p.ctype);
    }
    let (returns, call) = if f.ret.is_some() {
        let call = format!("Ok(ctx.call(&{upper}, &args)?.expect(\"annotated return value\"))");
        ("FutureHandle", call)
    } else {
        ("()", format!("ctx.call(&{upper}, &args)?;\n    Ok(())"))
    };
    format!(
        r#"static {upper}: LazyLock<Arc<Annotation>> = LazyLock::new(|| {{
    Annotation::new("{name}", |inv| {{
        // TODO: downcast the pieces and call the unmodified
        // library function `{name}({names})`.
        let _ = inv;
        unimplemented!()
    }})
{chain}    .build()
}});

/// Annotated wrapper for `{name}` (generated; see the SA above).
pub fn {snake}(ctx: &MozartContext{params}) -> Result<{returns}> {{
    let args = [
{args}    ];
    {call}
}}
"#,
        names = names.join(", "),
        snake = snake(name),
    )
}

fn snake(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// The Rust type and the `Arg` variant a C parameter type maps to.
fn rust_param(ctype: &str) -> (&'static str, &'static str) {
    if ctype.contains('*') {
        ("&SharedVec<f64>", "Vec")
    } else if ctype.contains("double") || ctype.contains("float") {
        ("f64", "Float")
    } else {
        ("i64", "Int")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn generates_listing_2_wrappers() {
        let src = r#"
            splittype ArraySplit(length);

            @splittable(
                size: SizeSplit(size), a: ArraySplit(size),
                b: ArraySplit(size), mut out: ArraySplit(size))
            void vdAdd(long size, double *a, double *b, double *out);
        "#;
        let file = parse(src).unwrap();
        let code = generate(&file, "MKL vector math wrappers");
        assert!(code.contains("static VDADD: LazyLock<Arc<Annotation>>"));
        assert!(code.contains(".mut_arg(\"out\", concrete(array_split_splitter(), vec![0]))"));
        assert!(code.contains("pub fn vd_add(ctx: &MozartContext, size: i64"));
        assert!(code.contains("impl Concat for ArraySplitConcat"));
        assert!(code.contains("fn slice_back(&self, out: &DataValue, offset: u64, len: u64)"));
        assert!(code.contains("// Some(Arc::new(ArraySplitConcat)) once the skeleton below is"));
        assert!(code.contains("Arg::Vec(a), // double*"));
        assert!(
            !code.contains("-> Result<FutureHandle>"),
            "void fn returns unit"
        );
    }

    #[test]
    fn generates_generic_and_unknown() {
        let src = r#"
            @splittable(left: S, right: S) -> S
            matrix add(matrix left, matrix right);

            @splittable(m: S) -> unknown
            matrix filterZeroedRows(matrix m);
        "#;
        let file = parse(src).unwrap();
        let code = generate(&file, "matrix wrappers");
        assert!(code.contains(".arg(\"left\", generic(0))"));
        assert!(code.contains(".ret(generic(0))"));
        assert!(code.contains("unknown(/* TODO"));
        assert!(code.contains("pub fn filter_zeroed_rows"));
        assert!(code.contains("-> Result<FutureHandle>"));
    }

    #[test]
    fn snake_case_conversion() {
        assert_eq!(snake("vdLog1p"), "vd_log1p");
        assert_eq!(snake("normalizeMatrixAxis"), "normalize_matrix_axis");
        assert_eq!(snake("add"), "add");
    }
}
