//! Rust wrapper generation — the output side of the paper's `annotate`
//! tool (§4.1): "generates namespaced C++ wrapper functions around each
//! annotated library function ... packaged with the splitting API and a
//! lookup table".
//!
//! Here the emitted code is a Rust module using `mozart_core`'s builder
//! API, matching the hand-written wrappers in the `sa-*` crates.

use crate::ast::{AnnotatedFn, AnnotationFile, TypeExpr};

/// Generate a Rust wrapper module for a parsed annotation file,
/// targeting the **splitting API v2**: declared split types become
/// skeleton `Splitter` impls with the single `merge_strategy`
/// capability probe (instead of the removed v1 boolean probes and
/// merge variants), and the three-argument `merge` that always
/// receives the merged element total as a size hint.
pub fn generate(file: &AnnotationFile, module_doc: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("//! {module_doc}\n"));
    out.push_str("//! Generated by the `annotate` tool — do not edit.\n\n");
    out.push_str("use std::sync::{Arc, LazyLock};\n");
    out.push_str("use mozart_core::annotation::{concrete, generic, missing, unknown};\n");
    out.push_str("use mozart_core::prelude::*;\n\n");

    for st in &file.split_types {
        out.push_str(&generate_split_type(&st.name, &st.params, file));
        out.push('\n');
    }

    for f in &file.functions {
        out.push_str(&generate_fn(f));
        out.push('\n');
    }
    out
}

/// Skeleton v2 `Splitter` impl for one declared split type: the five
/// core methods plus the `merge_strategy` capability probe, followed by
/// a skeleton `Concat` capability impl. The annotator fills the
/// `todo!()` bodies and picks the strategy variant that matches the
/// type's merge semantics (and, for concatenations, optionally
/// implements `Placement` and wires up the emitted `Concat` skeleton).
fn generate_split_type(name: &str, params: &[String], file: &AnnotationFile) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "/// Split type `{name}<{}>` (generated v2 skeleton).\n",
        params.join(", ")
    ));
    s.push_str(&format!("pub struct {name};\n\n"));
    s.push_str(&format!("impl Splitter for {name} {{\n"));
    s.push_str(&format!(
        "    fn name(&self) -> &'static str {{\n        \"{name}\"\n    }}\n\n"
    ));
    s.push_str("    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {\n");
    for c in file.constructors.iter().filter(|c| c.name == *name) {
        s.push_str(&format!(
            "        // constructor {}({}) => ({})\n",
            c.name,
            c.args.join(", "),
            c.exprs.join(", ")
        ));
    }
    s.push_str(&format!(
        "        // TODO: map the constructor arguments to ({}).\n",
        params.join(", ")
    ));
    s.push_str("        let _ = ctor_args;\n        todo!()\n    }\n\n");
    for line in [
        "    fn info(&self, arg: &DataValue, params: &Params) -> Result<RuntimeInfo> {",
        "        // TODO: report total_elements and elem_size_bytes.",
        "        let _ = (arg, params);",
        "        todo!()",
        "    }",
        "",
        "    fn split(",
        "        &self,",
        "        arg: &DataValue,",
        "        range: std::ops::Range<u64>,",
        "        params: &Params,",
        "    ) -> Result<Option<DataValue>> {",
        "        // TODO: return the piece covering `range`, or Ok(None) past the end.",
        "        let _ = (arg, range, params);",
        "        todo!()",
        "    }",
        "",
        "    fn merge(",
        "        &self,",
        "        pieces: Vec<DataValue>,",
        "        params: &Params,",
        "        total_elements: u64,",
        "    ) -> Result<DataValue> {",
        "        // TODO: merge in element order; `total_elements` is the size hint.",
        "        let _ = (pieces, params, total_elements);",
        "        todo!()",
        "    }",
        "",
        "    fn merge_strategy(&self) -> MergeStrategy {",
        "        // TODO: pick the capability descriptor — Concat { placement }",
        "        // for concatenation, in-place views included (placement enables",
        "        // the zero-copy merge; also consider implementing `Concat` via",
        "        // `Splitter::concat` so the serving layer can coalesce requests),",
        "        // Custom { terminal } otherwise (terminal: true for reductions).",
        "        MergeStrategy::Custom { terminal: false }",
        "    }",
        "",
        "    fn concat(&self) -> Option<Arc<dyn Concat>> {",
        "        // TODO: for concatenation types, return",
    ] {
        s.push_str(line);
        s.push('\n');
    }
    s.push_str(&format!(
        "        // Some(Arc::new({name}Concat)) once the skeleton below is\n"
    ));
    for line in [
        "        // implemented; keeping None disables request coalescing for",
        "        // this type.",
        "        None",
        "    }",
        "}",
        "",
    ] {
        s.push_str(line);
        s.push('\n');
    }
    s.push_str(&generate_concat(name));
    s
}

/// Skeleton `Concat` capability impl for one declared split type: the
/// `concat`/`slice_back` pair that lets the serving layer coalesce
/// requests into one evaluation over concatenated inputs. Delete it for
/// types whose values cannot be concatenated outside the runtime.
fn generate_concat(name: &str) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "/// `Concat` capability for `{name}` (generated v2 skeleton).\n"
    ));
    s.push_str("///\n");
    s.push_str("/// Implement when values of this split type concatenate end to\n");
    s.push_str("/// end, then return it from `Splitter::concat`; delete it (keeping\n");
    s.push_str("/// the default `None`) otherwise.\n");
    s.push_str(&format!("pub struct {name}Concat;\n\n"));
    s.push_str(&format!("impl Concat for {name}Concat {{\n"));
    for line in [
        "    fn concat(&self, values: &[DataValue]) -> Result<(DataValue, Vec<u64>)> {",
        "        // TODO: concatenate end to end and report each input's starting",
        "        // element offset (offsets[0] == 0, nondecreasing).",
        "        let _ = values;",
        "        todo!()",
        "    }",
        "",
        "    fn slice_back(&self, out: &DataValue, offset: u64, len: u64) -> Result<DataValue> {",
        "        // TODO: return elements [offset, offset + len) as a standalone",
        "        // value (a zero-copy view where the data type supports one).",
        "        let _ = (out, offset, len);",
        "        todo!()",
        "    }",
        "}",
    ] {
        s.push_str(line);
        s.push('\n');
    }
    s
}

fn type_expr_code(f: &AnnotatedFn, ty: &TypeExpr, generics: &mut Vec<String>) -> String {
    match ty {
        TypeExpr::Missing => "missing()".to_string(),
        TypeExpr::Unknown => {
            "unknown(/* TODO: merger for the unknown result */ todo_merger())".to_string()
        }
        TypeExpr::Generic(g) => {
            if !generics.contains(g) {
                generics.push(g.clone());
            }
            let id = generics.iter().position(|x| x == g).expect("just pushed");
            format!("generic({id})")
        }
        TypeExpr::Concrete { name, ctor_args } => {
            let idxs: Vec<String> = ctor_args
                .iter()
                .map(|a| {
                    f.arg_index(a)
                        .map(|i| i.to_string())
                        .unwrap_or_else(|| format!("/* unresolved: {a} */ 0"))
                })
                .collect();
            format!(
                "concrete({}_splitter(), vec![{}])",
                snake(name),
                idxs.join(", ")
            )
        }
    }
}

fn generate_fn(f: &AnnotatedFn) -> String {
    let mut generics = Vec::new();
    let upper = f.name.to_uppercase();
    let mut s = String::new();
    s.push_str(&format!(
        "static {upper}: LazyLock<Arc<Annotation>> = LazyLock::new(|| {{\n"
    ));
    s.push_str(&format!("    Annotation::new(\"{}\", |inv| {{\n", f.name));
    s.push_str("        // TODO: downcast the pieces and call the unmodified\n");
    s.push_str(&format!(
        "        // library function `{}({})`.\n",
        f.name,
        f.params
            .iter()
            .map(|p| p.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str("        let _ = inv;\n        unimplemented!()\n    })\n");
    for a in &f.args {
        let expr = type_expr_code(f, &a.ty, &mut generics);
        if a.mutable {
            s.push_str(&format!("    .mut_arg(\"{}\", {expr})\n", a.name));
        } else {
            s.push_str(&format!("    .arg(\"{}\", {expr})\n", a.name));
        }
    }
    if let Some(r) = &f.ret {
        let expr = type_expr_code(f, r, &mut generics);
        s.push_str(&format!("    .ret({expr})\n"));
    }
    s.push_str("    .build()\n});\n");

    // Public wrapper stub.
    s.push_str(&format!(
        "\n/// Annotated wrapper for `{}` (generated; see the SA above).\n",
        f.name
    ));
    s.push_str(&format!("pub fn {}(ctx: &MozartContext", snake(&f.name)));
    for p in &f.params {
        s.push_str(&format!(
            ", {}: {}",
            snake(&p.name),
            rust_param_type(&p.ctype)
        ));
    }
    let returns = f.ret.is_some();
    if returns {
        s.push_str(") -> Result<FutureHandle> {\n");
    } else {
        s.push_str(") -> Result<()> {\n");
    }
    s.push_str("    let args = [\n");
    for p in &f.params {
        s.push_str(&format!(
            "        {}, // {}\n",
            wrap_param(&p.ctype, &snake(&p.name)),
            p.ctype
        ));
    }
    s.push_str("    ];\n");
    if returns {
        s.push_str(&format!(
            "    Ok(ctx.call(&{upper}, &args)?.expect(\"annotated return value\"))\n"
        ));
    } else {
        s.push_str(&format!("    ctx.call(&{upper}, &args)?;\n    Ok(())\n"));
    }
    s.push_str("}\n");
    s
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

fn rust_param_type(ctype: &str) -> &'static str {
    if ctype.contains('*') {
        "&SharedVec<f64>"
    } else if ctype.contains("double") || ctype.contains("float") {
        "f64"
    } else {
        "i64"
    }
}

fn wrap_param(ctype: &str, name: &str) -> String {
    if ctype.contains('*') {
        format!("Arg::Vec({name})")
    } else if ctype.contains("double") || ctype.contains("float") {
        format!("Arg::Float({name})")
    } else {
        format!("Arg::Int({name})")
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
