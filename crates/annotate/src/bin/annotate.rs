//! The `annotate` CLI: parse an SA file and emit a Rust wrapper module.
//!
//! Usage: `annotate <file.sa> [module-doc]`

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: annotate <file.sa> [module-doc]");
        return ExitCode::from(2);
    };
    let doc = args
        .next()
        .unwrap_or_else(|| format!("Wrappers generated from {path}"));
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("annotate: cannot read {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let file = match mozart_annotate::parse(&src) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("annotate: {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let diagnostics = mozart_annotate::check(&file);
    for d in &diagnostics {
        eprintln!("{path}:{d}");
    }
    if !diagnostics.is_empty() {
        return ExitCode::from(1);
    }
    print!("{}", mozart_annotate::generate(&file, &doc));
    ExitCode::SUCCESS
}
