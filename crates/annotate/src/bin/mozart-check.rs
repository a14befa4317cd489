//! `mozart-check`: static soundness verification for split annotations.
//!
//! One rule set, two sources of annotations:
//!
//! 1. **Builtin annotations** — registers every workload integration's
//!    defaults, then runs the annotation checker
//!    ([`mozart_core::verify::check_annotation`]) and the advisory lints
//!    ([`mozart_core::verify::lint_annotation`]) over each registered
//!    [`Annotation`](mozart_core::Annotation).
//! 2. **`.sa` files** — each path argument (a file, or a directory
//!    walked recursively for `*.sa`) goes through
//!    [`mozart_annotate::check_source`]: its names are resolved, and each
//!    `@splittable` is lowered to an `Annotation` and run through the
//!    same `check_annotation` and `lint_annotation` as a builtin. Every
//!    finding of a file prints in line order as `path:line: message`; a
//!    rule the text cannot decide prints as a `note:` and fails nothing.
//!
//! Exits nonzero on any diagnostic, so CI can gate on a clean tree:
//!
//! ```text
//! mozart-check            # builtins + corpus/sa (when it exists)
//! mozart-check corpus/sa  # builtins + every .sa file under corpus/sa
//! ```
//!
//! With no arguments the checker also walks `corpus/sa` relative to
//! the working directory when present, so a bare run from the repo
//! root covers the whole positive surface.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn collect_sa_files(path: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if path.is_dir() {
        let entries = std::fs::read_dir(path)?.map(|e| e.map(|e| e.path()));
        let mut entries = entries.collect::<std::io::Result<Vec<_>>>()?;
        entries.sort();
        for entry in entries {
            collect_sa_files(&entry, out)?;
        }
    } else if path.extension().is_some_and(|e| e == "sa") {
        out.push(path.to_path_buf());
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut diagnostics = 0usize;

    // Every builtin annotation the integrations register.
    workloads::register_all_defaults();
    let builtins = mozart_core::registry::registered_annotations();
    // Builtins must also be lint-clean: a Concat-strategy split type
    // without its concat() capability silently disables request
    // coalescing.
    for annot in &builtins {
        let lints = mozart_core::verify::lint_annotation(annot);
        for err in mozart_core::verify::check_annotation(annot)
            .into_iter()
            .chain(lints)
        {
            eprintln!("mozart-check: builtin: {err}");
            diagnostics += 1;
        }
    }

    // Every .sa file named on the command line; with no arguments, fall
    // back to the repo's positive corpus when the working directory has
    // one.
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() && Path::new("corpus/sa").is_dir() {
        args.push("corpus/sa".to_string());
    }
    let mut files = Vec::new();
    for arg in &args {
        if let Err(e) = collect_sa_files(Path::new(arg), &mut files) {
            eprintln!("mozart-check: {arg}: {e}");
            diagnostics += 1;
        }
    }
    let num_files = files.len();
    for file in files {
        let display = file.display().to_string();
        let src = match std::fs::read_to_string(&file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("mozart-check: {display}: {e}");
                diagnostics += 1;
                continue;
            }
        };
        for d in mozart_annotate::check_source(&display, &src) {
            eprintln!("{display}:{d}");
            diagnostics += usize::from(!d.note);
        }
    }

    eprintln!(
        "mozart-check: {} builtin annotation(s), {num_files} .sa file(s), \
         {diagnostics} diagnostic(s)",
        builtins.len(),
    );
    if diagnostics == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
