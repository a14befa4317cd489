//! # Mozart: split annotations for unmodified libraries
//!
//! A from-scratch Rust reproduction of *"Optimizing Data-Intensive
//! Computations in Existing Libraries with Split Annotations"* (Palkar &
//! Zaharia, SOSP 2019).
//!
//! Split annotations (SAs) let an annotator — the library developer or a
//! third party — enable cross-function **data-movement optimization**
//! (cache-sized pipelining) and **automatic parallelization** over
//! functions that are never modified. The annotator:
//!
//! 1. defines [split types](split::Splitter) for the library's data types
//!    and implements the splitting API (constructor / split / merge /
//!    info, Table 1 of the paper) — for a split type whose values split
//!    into bands of rows, only its name, constructor, info and value
//!    type ([`row_bands`]); for a reduction's merge-only split type,
//!    only its name, merge strategy and merge ([`merge_only`]) — and
//! 2. attaches an [`Annotation`] to each side-effect-free function,
//!    assigning each argument and return value a
//!    [`SplitTypeExpr`].
//!
//! At runtime, wrapper functions register calls with a [`MozartContext`]
//! (the paper's `libmozart`), which lazily captures a dataflow graph.
//! When a lazy value is accessed, the [planner] groups
//! compatible calls into *stages* using split type equality and type
//! inference, and the [executor] splits stage inputs into
//! batches sized to the L2 cache, pipelines each batch through every
//! function in the stage on one worker thread, and merges the partial
//! results.
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use mozart_core::prelude::*;
//!
//! // An "existing library" function: elementwise doubling, in place.
//! fn double(xs: &mut [f64]) {
//!     for x in xs {
//!         *x *= 2.0;
//!     }
//! }
//!
//! // The annotator wraps it once. Split parameters come from the
//! // explicit size argument (the MKL convention) — never from the
//! // mutable array itself, which `mozart-check` rejects.
//! let annot = Annotation::new("double", |inv| {
//!     // The piece is a view of the caller's buffer.
//!     let piece = &inv.arg::<VecValue>(1)?.0;
//!     // SAFETY: the Mozart executor hands each worker disjoint ranges.
//!     double(unsafe { piece.slice_mut_unchecked(0, piece.len()) });
//!     Ok(None)
//! })
//! .arg("n", missing())
//! .mut_arg("xs", concrete(Arc::new(ArraySplit), vec![0]))
//! .build();
//!
//! // The application uses the wrapped function as always.
//! let ctx = MozartContext::with_workers(2);
//! let data = SharedVec::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
//! // Arguments are borrowed: the buffer is not copied or wrapped.
//! ctx.call(&annot, &[Arg::Int(4), Arg::Vec(&data)]).unwrap();
//! ctx.call(&annot, &[Arg::Int(4), Arg::Vec(&data)]).unwrap();
//! // Reading the buffer forces evaluation (the paper's mprotect trick).
//! assert_eq!(data.as_slice(), &[4.0, 8.0, 12.0, 16.0]);
//! ```
//!
//! ## Serving pipelines
//!
//! A context no longer has to own its threads or allocate its merge
//! targets afresh on every evaluation — the primitives behind the `mozart-serve` crate's
//! multi-tenant [`PipelineService`] live here:
//!
//! * [`PoolHandle`]: a shareable worker pool. Any number of contexts
//!   [`attach_pool`](MozartContext::attach_pool) the same handle;
//!   concurrently submitted stages queue on one machine-sized thread
//!   set instead of oversubscribing the host with a pool per context.
//!   The pool counts jobs and batches ([`PoolStats`]), not sessions: a
//!   serving layer meters each session from its requests'
//!   [`PhaseStats`].
//! * [`PlanCache`]: evaluations fingerprint their pending call graph
//!   ([`graph::DataflowGraph::pending_shape`]) and keep, per
//!   fingerprint, the placement-merge targets their stages released,
//!   for the next evaluation of the same fingerprint to write over.
//!   Every evaluation still plans its own stages; shape or split-type
//!   changes change the fingerprint, so a spare never meets a stage of
//!   another shape unchecked. Attach with
//!   [`attach_plan_cache`](MozartContext::attach_plan_cache).
//!
//! ```
//! use std::sync::Arc;
//! use mozart_core::prelude::*;
//!
//! let pool = PoolHandle::new(1); // shared by every context that attaches it
//! let cache = Arc::new(PlanCache::new(64));
//! let session_ctx = MozartContext::with_workers(2);
//! session_ctx.attach_pool(pool.clone());
//! session_ctx.attach_plan_cache(cache.clone());
//! ```
//!
//! See the `mozart-serve` crate for the full service front-end
//! (sessions, admission control, the TCP example) and the `serve.mix`
//! workload of the repository benchmark (`benchmark/`).
//!
//! [`PipelineService`]: https://docs.rs/mozart-serve

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod annotation;
pub mod array_split;
pub mod buffer;
#[path = "../../cells.rs"]
mod cells;
pub mod config;
pub mod context;
pub mod cputime;
pub mod error;
pub mod executor;
pub mod faultinject;
mod floor;
pub mod graph;
pub mod membudget;
pub mod merge_only;
pub mod planner;
pub mod pool;
pub mod registry;
pub mod row_bands;
pub mod split;
pub mod stats;
pub mod trace;
pub mod value;
pub mod verify;

pub use annotation::{Annotation, ArgSpec, Invocation, SplitTypeExpr};
pub use array_split::ArraySplit;
pub use buffer::{ProtectFlag, SharedVec, VecValue};
pub use config::Config;
pub use context::{Future, FutureHandle, MozartContext};
pub use error::{Error, Result};
pub use faultinject::{CancelToken, FaultKind, FaultPhase, FaultPlan, FaultPoint};
pub use planner::{PlanCache, PlanCacheStats};
pub use pool::{PoolHandle, WorkerPool};
pub use split::{
    Concat, MergeStrategy, Params, Placement, RuntimeInfo, SizeSplit, SplitInstance, Splitter,
};
pub use stats::{PhaseStats, PoolStats};
pub use trace::{
    chrome_trace_json, SpanKind, SpanRecord, SpanTree, TraceCtx, TraceId, TraceRecorder,
};
pub use value::{Arg, BoolValue, DataValue, FloatValue, IntValue, StrValue};
pub use verify::{check_annotation, lint_annotation, verify_stage, VerifyError};

/// Convenient glob-import surface for integrations and applications.
pub mod prelude {
    pub use crate::annotation::{concrete, generic, missing, unknown, Annotation, Invocation};
    pub use crate::array_split::ArraySplit;
    pub use crate::buffer::{SharedVec, VecValue};
    pub use crate::config::Config;
    pub use crate::context::{Future, FutureHandle, MozartContext};
    pub use crate::error::{Error, Result};
    pub use crate::faultinject::{CancelToken, FaultKind, FaultPhase, FaultPlan, FaultPoint};
    pub use crate::merge_only::MergeOnly;
    pub use crate::planner::{PlanCache, PlanCacheStats};
    pub use crate::pool::PoolHandle;
    pub use crate::registry::{register_annotation, register_default_splitter};
    pub use crate::split::{
        Concat, MergeStrategy, Params, Placement, RuntimeInfo, SizeSplit, SplitInstance, Splitter,
    };
    pub use crate::stats::{PhaseStats, PoolStats};
    pub use crate::trace::{SpanKind, SpanRecord, SpanTree, TraceId, TraceRecorder};
    pub use crate::value::{Arg, BoolValue, DataValue, FloatValue, IntValue, StrValue};
    pub use crate::verify::{check_annotation, lint_annotation, verify_stage, VerifyError};
}
