//! # workloads — the paper's 15-benchmark evaluation suite (Table 2)
//!
//! Every workload is implemented in up to three modes:
//!
//! * **base** — the unmodified substrate library, called eagerly
//!   (single-threaded for the NumPy/Pandas/spaCy libraries; internally
//!   parallel for MKL and ImageMagick, matching the paper's baselines);
//! * **mozart** — the same operator sequence through the annotated
//!   wrappers, captured lazily and executed by the Mozart runtime
//!   (split + pipelined + parallel);
//! * **fused** — the hand-fused single-pass parallel implementation
//!   standing in for the IR compilers (Weld/Bohrium/Numba).
//!
//! All modes of a workload compute the same result (verified by the
//! test suite), so benchmark comparisons measure execution strategy,
//! not algorithm differences.
//!
//! | Workload | Libraries | Modules |
//! |---|---|---|
//! | Black Scholes | NumPy, MKL | [`black_scholes`] |
//! | Haversine | NumPy, MKL | [`haversine`] |
//! | nBody | NumPy, MKL | [`nbody`] |
//! | Shallow Water | NumPy, MKL | [`shallow_water`] |
//! | Data Cleaning | Pandas | [`data_cleaning`] |
//! | Crime Index | Pandas, NumPy | [`crime_index`] |
//! | Birth Analysis | Pandas, NumPy | [`birth_analysis`] |
//! | MovieLens | Pandas, NumPy | [`movielens`] |
//! | Speech Tag | spaCy | [`speech_tag`] |
//! | Nashville | ImageMagick | [`images`] |
//! | Gotham | ImageMagick | [`images`] |

#![warn(missing_docs)]

pub mod birth_analysis;
pub mod black_scholes;
pub mod crime_index;
pub mod data;
pub mod data_cleaning;
pub mod haversine;
pub mod images;
pub mod movielens;
pub mod nbody;
pub mod shallow_water;
pub mod speech_tag;

use mozart_core::{Config, MozartContext};

/// Build a Mozart context configured for `workers` threads, with all
/// integrations' default split types registered.
pub fn mozart_context(workers: usize) -> MozartContext {
    register_all_defaults();
    MozartContext::new(Config::with_workers(workers))
}

/// Build a Mozart context from an explicit configuration, with all
/// integrations' default split types registered — the ablation entry
/// point benchmarks use (e.g. `phase_breakdown` toggling
/// `Config::placement_merge`).
pub fn mozart_context_with(config: Config) -> MozartContext {
    register_all_defaults();
    MozartContext::new(config)
}

/// A context for unit tests that count stages: L2 pinned to 64 KiB, so
/// the work floor (4 KiB) is below every call the tests make and each
/// one is captured and planned, whatever the host's cache.
#[cfg(test)]
pub(crate) fn captured_context(workers: usize) -> MozartContext {
    mozart_context_with(Config {
        l2_bytes: 64 << 10,
        ..Config::with_workers(workers)
    })
}

/// Register the default split types of every integration. Idempotent.
pub fn register_all_defaults() {
    sa_vectormath::register_defaults();
    sa_ndarray::register_defaults();
    sa_dataframe::register_defaults();
    sa_image::register_defaults();
    sa_text::register_defaults();
}

/// Relative-difference check used by the cross-mode verification tests.
pub fn close(a: f64, b: f64, tol: f64) -> bool {
    if a.is_nan() && b.is_nan() {
        return true;
    }
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}
