//! Table 3: integration effort — lines of code per library integration,
//! measured directly from this repository's `sa-*` crates, split into
//! SA/wrapper code vs splitting-API code, next to the paper's reported
//! numbers for its Mozart and Weld integrations, with the row-band
//! splitting code the NumPy, Pandas, spaCy, MKL and ImageMagick
//! integrations share (`core/src/row_bands.rs`) and the merge-only code
//! the NumPy, Pandas and MKL reductions share (`core/src/merge_only.rs`)
//! on lines of their own — followed by the
//! runtime's own size per layer, so a PR that grows or shrinks the
//! machinery under the integrations shows it.

use std::path::Path;

/// Count non-empty, non-comment source lines.
fn count(text: &str) -> usize {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// [`count`] of a file (0 if unreadable).
fn loc(path: &Path) -> usize {
    std::fs::read_to_string(path).map_or(0, |text| count(&text))
}

/// [`count`] of every `.rs` file under `dir`, each up to its first
/// top-level `#[cfg(test)] mod` (test modules close their files in
/// this repository).
fn non_test_loc(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| entry.path())
        .map(|path| {
            if path.is_dir() {
                non_test_loc(&path)
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let text = std::fs::read_to_string(&path).unwrap_or_default();
                count(text.split("\n#[cfg(test)]\nmod ").next().unwrap_or(""))
            } else {
                0
            }
        })
        .sum()
}

/// The runtime's layers, bottom up: `(layer, its crates and the
/// source files they share)`. `cells.rs`, which `core` compiles too, is
/// counted once, with the libraries.
const LAYERS: &[(&str, &str)] = &[
    (
        "base libraries",
        "dataframe imagelib ndarray-lite textproc vectormath vector_width.rs cells.rs",
    ),
    ("core", "core"),
    (
        "sa-*",
        "sa-dataframe sa-image sa-ndarray sa-text sa-vectormath",
    ),
    ("serve", "serve"),
];

struct Integration {
    library: &'static str,
    crate_dir: &'static str,
    /// Files holding the SAs / wrapper functions.
    sa_files: &'static [&'static str],
    /// Files holding the splitting API (split types).
    split_files: &'static [&'static str],
    /// Paper-reported (SA LoC, splitting API LoC, Weld total LoC).
    paper: (usize, usize, Option<usize>),
}

const INTEGRATIONS: &[Integration] = &[
    Integration {
        library: "NumPy",
        crate_dir: "sa-ndarray",
        sa_files: &["wrappers.rs"],
        split_files: &["split.rs", "reduce.rs"],
        paper: (47, 37, Some(394)),
    },
    Integration {
        library: "Pandas",
        crate_dir: "sa-dataframe",
        sa_files: &["wrappers.rs"],
        split_files: &["split.rs", "groupsplit.rs"],
        paper: (72, 49, Some(2076)),
    },
    Integration {
        library: "spaCy",
        crate_dir: "sa-text",
        sa_files: &["lib.rs"],
        split_files: &["split.rs"],
        paper: (8, 12, None),
    },
    Integration {
        library: "MKL",
        crate_dir: "sa-vectormath",
        sa_files: &["wrappers.rs"],
        // `ArraySplit` and `VecValue`'s row band live in `core`, where
        // the buffer type is.
        split_files: &[
            "matrix.rs",
            "reduce.rs",
            "lib.rs",
            "../../core/src/array_split.rs",
        ],
        paper: (74, 90, None),
    },
    Integration {
        library: "ImageMagick",
        crate_dir: "sa-image",
        sa_files: &["lib.rs"],
        split_files: &[],
        paper: (49, 63, None),
    },
];

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    println!("=== Table 3: integration effort (lines of code per library) ===");
    println!(
        "{:<14} {:>10} {:>12} {:>8} | {:>9} {:>10} {:>10}",
        "Library", "SAs", "Split.API", "Total", "paper-SA", "paper-API", "paper-Weld"
    );
    for i in INTEGRATIONS {
        let src = root.join(i.crate_dir).join("src");
        let sa: usize = i.sa_files.iter().map(|f| loc(&src.join(f))).sum();
        let split: usize = i.split_files.iter().map(|f| loc(&src.join(f))).sum();
        let (psa, papi, pweld) = i.paper;
        println!(
            "{:<14} {:>10} {:>12} {:>8} | {:>9} {:>10} {:>10}",
            i.library,
            sa,
            split,
            sa + split,
            psa,
            papi,
            pweld.map(|w| w.to_string()).unwrap_or_else(|| "-".into())
        );
    }

    // The generic halves of the splitting API live in `core`, written
    // once for every integration whose split types are row bands or
    // merge-only reductions; they are counted here so the integrations'
    // columns do not hide them.
    let shared = [
        (
            "core row bands",
            "row_bands.rs",
            "NumPy, Pandas, spaCy, MKL, ImageMagick",
        ),
        ("core merge-only", "merge_only.rs", "NumPy, Pandas, MKL"),
    ];
    for (name, file, users) in shared {
        let lines = loc(&root.join("core/src").join(file));
        println!(
            "{name:<15} {:>9} {lines:>12} {lines:>8} | shared by {users}",
            "-"
        );
    }

    println!("\n=== runtime size: non-test lines of code per layer ===");
    let mut total = 0;
    for (layer, crates) in LAYERS {
        let lines: usize = crates
            .split(' ')
            .map(|c| match c.strip_suffix(".rs") {
                Some(_) => loc(&root.join(c)),
                None => non_test_loc(&root.join(c).join("src")),
            })
            .sum();
        total += lines;
        println!("{layer:<14} {lines:>8}");
    }
    println!("{:<14} {total:>8}", "total");
    println!("\nNote: this Rust reproduction's wrappers are more verbose than the");
    println!("paper's generated C headers / Python decorators, but stay 1-2 orders");
    println!("of magnitude below a Weld-style per-operator IR rewrite (paper: 2076");
    println!("LoC for Pandas alone, plus the >25K LoC compiler).");
}
