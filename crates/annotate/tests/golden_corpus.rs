//! Golden-diagnostic tests over the `.sa` corpus: every malformed file
//! in `corpus/sa-bad/` must produce exactly the expected diagnostics
//! (message text and 1-based line), and every file in `corpus/sa/`
//! must check clean. They call [`check_source`], the entry point
//! `mozart-check` prints from (each finding as `path:line: message`),
//! so they pin what CI logs and editors see.

use mozart_annotate::check_source;

/// `(line, message)` of every finding in `corpus/{rel}`, checked under
/// the path `mozart-check` is given from the repository root.
fn diags(rel: &str) -> Vec<(usize, String)> {
    let path = format!("{}/../../corpus/{rel}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    check_source(&format!("corpus/{rel}"), &src)
        .into_iter()
        .map(|d| {
            assert!(!d.note, "{rel}: a finding the text cannot decide: {d}");
            (d.line, d.message)
        })
        .collect()
}

#[test]
fn valid_corpus_is_clean() {
    for file in ["sa/vectormath.sa", "sa/matrix.sa"] {
        let d = diags(file);
        assert!(d.is_empty(), "{file}: unexpected diagnostics {d:?}");
    }
}

#[test]
fn ctor_mut_golden() {
    assert_eq!(
        diags("sa-bad/ctor-mut.sa"),
        vec![(
            3,
            "scaleInPlace: argument `out` constructor references mut argument \
             0; constructors must not depend on storage the call mutates"
                .to_string()
        )]
    );
}

#[test]
fn unknown_arg_golden() {
    assert_eq!(
        diags("sa-bad/unknown-arg.sa"),
        vec![(
            3,
            "consume: argument `x` has the `unknown` split type; `unknown` is \
             only legal in return position"
                .to_string()
        )]
    );
}

#[test]
fn unbound_generic_golden() {
    assert_eq!(
        diags("sa-bad/unbound-generic.sa"),
        vec![(
            3,
            "make: return type uses generic S0 that no argument binds".to_string()
        )]
    );
}

#[test]
fn dup_dead_splittype_golden() {
    assert_eq!(
        diags("sa-bad/dup-dead-splittype.sa"),
        vec![
            (
                3,
                "duplicate splittype declaration `RowSplit` (first declared \
                 on line 2)"
                    .to_string()
            ),
            (
                4,
                "splittype `Unused` is declared but never used by a \
                 constructor or annotation"
                    .to_string()
            ),
        ]
    );
}

#[test]
fn ctor_arity_golden() {
    assert_eq!(
        diags("sa-bad/ctor-arity.sa"),
        vec![(
            4,
            "constructor for `MatrixSplit` produces 1 parameter(s), but the \
             splittype declares 2"
                .to_string()
        )]
    );
}

#[test]
fn missing_ret_golden() {
    assert_eq!(
        diags("sa-bad/missing-ret.sa"),
        vec![(
            2,
            "head: return type is `_`; a missing-typed return cannot be merged".to_string()
        )]
    );
}

#[test]
fn mixed_ctype_golden() {
    assert_eq!(
        diags("sa-bad/mixed-ctype.sa"),
        vec![(
            7,
            "count: split type ArraySplit applied to parameter `out` of C type \
             \"long\", but to \"double*\" on line 4; a split type is always \
             associated with one concrete type"
                .to_string()
        )]
    );
}

/// Every file of the negative corpus has its golden above.
#[test]
fn every_bad_file_has_a_golden() {
    let dir = format!("{}/../../corpus/sa-bad", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "ctor-arity.sa",
            "ctor-mut.sa",
            "dup-dead-splittype.sa",
            "missing-ret.sa",
            "mixed-ctype.sa",
            "unbound-generic.sa",
            "unknown-arg.sa",
        ]
    );
}
