//! Property tests for the annotation-language parser: randomly
//! generated well-formed SA files must parse, round-trip their
//! structure, and generate compilable-looking wrapper code.

use proptest::prelude::*;

use mozart_annotate::{generate, parse, TypeExpr};

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-zA-Z0-9]{0,8}".prop_map(|s| s)
}

fn type_name() -> impl Strategy<Value = String> {
    "[A-Z][a-zA-Z0-9]{2,10}Split".prop_map(|s| s)
}

#[derive(Debug, Clone)]
struct ArgSpec {
    mutable: bool,
    name: String,
    ty: GenTy,
}

#[derive(Debug, Clone)]
enum GenTy {
    Missing,
    Generic,
    Concrete(String, bool), // name, with ctor arg (self)
}

fn arg_spec() -> impl Strategy<Value = ArgSpec> {
    (
        any::<bool>(),
        ident(),
        prop_oneof![
            Just(GenTy::Missing),
            Just(GenTy::Generic),
            (type_name(), any::<bool>()).prop_map(|(n, c)| GenTy::Concrete(n, c)),
        ],
    )
        .prop_map(|(mutable, name, ty)| ArgSpec { mutable, name, ty })
}

fn render(fn_name: &str, args: &[ArgSpec], with_ret: bool) -> String {
    let mut sa = String::from("@splittable(");
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            sa.push_str(", ");
        }
        if a.mutable {
            sa.push_str("mut ");
        }
        sa.push_str(&a.name);
        sa.push_str(": ");
        match &a.ty {
            GenTy::Missing => sa.push('_'),
            GenTy::Generic => sa.push('S'),
            GenTy::Concrete(n, true) => sa.push_str(&format!("{n}({})", a.name)),
            GenTy::Concrete(n, false) => sa.push_str(n),
        }
    }
    sa.push(')');
    if with_ret {
        sa.push_str(" -> S");
    }
    sa.push('\n');
    let ret_ty = if with_ret { "matrix" } else { "void" };
    sa.push_str(&format!("{ret_ty} {fn_name}("));
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            sa.push_str(", ");
        }
        sa.push_str(&format!("double *{}", a.name));
    }
    sa.push_str(");\n");
    sa
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_well_formed_sas_parse(
        fn_name in ident(),
        mut args in prop::collection::vec(arg_spec(), 1..6),
        with_ret in any::<bool>(),
    ) {
        // Unique argument names.
        args.dedup_by(|a, b| a.name == b.name);
        let mut seen = std::collections::HashSet::new();
        args.retain(|a| seen.insert(a.name.clone()));
        // `-> S` needs a generic argument to bind it at runtime, but the
        // parser itself accepts it regardless.
        let src = render(&fn_name, &args, with_ret);
        let parsed = parse(&src).unwrap_or_else(|e| panic!("parse failed for:\n{src}\n{e}"));
        prop_assert_eq!(parsed.functions.len(), 1);
        let f = &parsed.functions[0];
        prop_assert_eq!(&f.name, &fn_name);
        prop_assert_eq!(f.args.len(), args.len());
        for (got, want) in f.args.iter().zip(&args) {
            prop_assert_eq!(got.mutable, want.mutable);
            prop_assert_eq!(&got.name, &want.name);
            match (&got.ty, &want.ty) {
                (TypeExpr::Missing, GenTy::Missing) => {}
                (TypeExpr::Generic(g), GenTy::Generic) => prop_assert_eq!(g, "S"),
                (TypeExpr::Concrete { name, ctor_args }, GenTy::Concrete(n, with_arg)) => {
                    prop_assert_eq!(name, n);
                    prop_assert_eq!(ctor_args.len(), *with_arg as usize);
                }
                (g, w) => prop_assert!(false, "type mismatch: {g:?} vs {w:?}"),
            }
        }
        prop_assert_eq!(f.ret.is_some(), with_ret);

        // Codegen runs and mentions the wrapper + every argument name.
        let code = generate(&parsed, "prop test");
        let needle = format!("\"{fn_name}\"");
        prop_assert!(code.contains(&needle));
        for a in &args {
            let needle = format!("\"{}\"", a.name);
            prop_assert!(code.contains(&needle));
        }
    }

    #[test]
    fn garbage_never_panics(src in "[ -~\n]{0,200}") {
        // Arbitrary printable input: parsing may fail, but must not panic.
        let _ = parse(&src);
    }
}

/// One `@splittable` may head several declarations; the list ends where
/// the next token does not start one, here a constructor.
#[test]
fn shared_declarations_end_at_the_next_item() {
    let src = "@splittable(a: ArraySplit(n), n: _)\n\
               void f(double *a, long n);\n\
               void g(double *a, long n);\n\
               ArraySplit(n) => (n);\n";
    let file = parse(src).expect("two shared declarations, then a constructor");
    let names: Vec<_> = file.functions.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["f", "g"]);
    assert_eq!(file.constructors.len(), 1);
}
