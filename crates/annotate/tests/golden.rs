//! Golden-output check for the `annotate` code generator (CI gate):
//! the emitted wrapper module for a fixed Listing-2-style annotation
//! source must match the checked-in `golden/vectormath.rs.golden`
//! byte for byte. A deliberate codegen change regenerates the golden
//! file (see the test's failure message); an accidental one fails CI.
//!
//! The golden file pins the **v2 splitting API surface**: skeleton
//! `Splitter` impls with the single `merge_strategy` capability probe,
//! the three-argument `merge`, and a companion `Concat` capability
//! skeleton (`concat`/`slice_back` stubs) per split type — never the
//! removed v1 methods (`merge_hinted`, placement trio, boolean probes).

use mozart_annotate::{codegen, parser};

const SOURCE: &str = r#"
splittype SizeSplit(size);
splittype ArraySplit(length);
ArraySplit(size) => (size);

@splittable(
    size: SizeSplit(size), a: ArraySplit(size),
    b: ArraySplit(size), mut out: ArraySplit(size))
void vdAdd(long size, double *a, double *b, double *out);

@splittable(size: SizeSplit(size), a: ArraySplit(size), mut out: ArraySplit(size))
void vdLog1p(long size, double *a, double *out);

@splittable(left: S, right: S) -> S
matrix add(matrix left, matrix right);

@splittable(m: S) -> unknown
matrix filterZeroedRows(matrix m);
"#;

#[test]
fn codegen_matches_golden_v2_output() {
    let file = parser::parse(SOURCE).expect("fixture parses");
    let generated = codegen::generate(&file, "MKL vector math wrappers (golden fixture)");
    let golden = include_str!("golden/vectormath.rs.golden");
    assert!(
        generated == golden,
        "annotate codegen output diverged from tests/golden/vectormath.rs.golden.\n\
         If the change is intentional, regenerate the golden file:\n\
         cargo test -p mozart-annotate --test golden -- --ignored regenerate\n\
         --- generated ---\n{generated}\n--- golden ---\n{golden}"
    );
    // The golden surface is v2-only: the single capability probe is
    // present and no removed v1 trait method is ever emitted.
    assert!(generated.contains("fn merge_strategy(&self) -> MergeStrategy"));
    assert!(generated.contains("total_elements: u64"));
    // Every declared split type also gets a Concat capability skeleton
    // so request coalescing is one TODO away.
    for ty in ["SizeSplit", "ArraySplit"] {
        assert!(
            generated.contains(&format!("impl Concat for {ty}Concat")),
            "missing Concat skeleton for `{ty}`"
        );
    }
    assert!(generated.contains("fn slice_back(&self, out: &DataValue, offset: u64, len: u64)"));
    for removed in [
        "merge_hinted",
        "needs_merge",
        "commutative",
        "Commutative",
        "fn terminal",
        "alloc_merged",
        "write_piece",
        "truncate_merged",
    ] {
        assert!(
            !generated.contains(removed),
            "generated code must not reference removed v1 surface `{removed}`"
        );
    }
}

/// Regenerates the golden file in the source tree. Run explicitly:
/// `cargo test -p mozart-annotate --test golden -- --ignored regenerate`
#[test]
#[ignore = "writes into the source tree; run on deliberate codegen changes"]
fn regenerate() {
    let file = parser::parse(SOURCE).expect("fixture parses");
    let generated = codegen::generate(&file, "MKL vector math wrappers (golden fixture)");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/vectormath.rs.golden"
    );
    std::fs::write(path, generated).expect("write golden file");
}
