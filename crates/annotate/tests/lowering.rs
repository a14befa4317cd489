//! A `.sa` annotation lowered to a `mozart_core::Annotation`: what it
//! carries, and how the rules that read a merge strategy treat a split
//! type that no builtin references.

use std::collections::HashMap;

use mozart_annotate::{check_source, lower, parse};

#[test]
fn unresolved_split_types_are_noted_not_failed() {
    // A mut argument and a Concat-lint return, both of a placeholder.
    let src = "@splittable(mut x: Opaque(n), n: _) -> Opaque(n)\nvoid f(double *x, long n);\n";
    let d = check_source("t.sa", src);
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(d[0].note && d[0].line == 1, "{d:?}");
    assert!(
        d[0].message.contains("not checkable from the text"),
        "{d:?}"
    );
    // The constructor rules still read a placeholder's arguments.
    let src = "@splittable(mut x: Opaque(x))\nvoid f(double *x);\n";
    let d = check_source("t.sa", src);
    assert_eq!(d.len(), 2, "{d:?}");
    assert!(
        !d[1].note && d[1].message.contains("mut argument 0"),
        "{d:?}"
    );
}

#[test]
fn lowered_annotations_name_their_source_and_have_no_body() {
    let file = parse("\n@splittable(a: S, b: T) -> T\nvoid f(double *a, double *b);\n").unwrap();
    let annots = lower(&file, "lib.sa", &HashMap::new());
    let f = &annots[0];
    assert_eq!(f.source, Some(("lib.sa", 2)));
    assert_eq!(format!("{f:?}"), "@splittable(a: S0, b: S1) -> S1 f");
    let call = mozart_core::Invocation {
        function: "f",
        args: &[],
    };
    let err = (f.func)(&call).unwrap_err().to_string();
    assert!(err.contains("lib.sa:2: f"), "{err}");
    // Checking a file registers the builtins and nothing of its own.
    assert!(check_source("lib.sa", "@splittable(a: _)\nvoid g(int a);\n").is_empty());
    let registered = mozart_core::registry::registered_annotations();
    assert_eq!(registered.len(), 105);
    assert!(registered.iter().all(|a| a.source.is_none()));
}
