//! Error types for the Mozart runtime.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the annotation layer, planner, or executor.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant docs describe the fields
pub enum Error {
    /// A wrapper downcast an argument to the wrong concrete type.
    ///
    /// Carries the function name, argument index, and the expected /
    /// actual type names.
    ArgType {
        function: &'static str,
        arg: usize,
        expected: &'static str,
        actual: &'static str,
    },
    /// A function was called with the wrong number of arguments.
    ArgCount {
        function: &'static str,
        expected: usize,
        actual: usize,
    },
    /// A split type constructor could not derive its parameters.
    Constructor {
        split_type: &'static str,
        message: String,
    },
    /// The splitting API was applied to an incompatible value.
    Split {
        split_type: &'static str,
        message: String,
    },
    /// A merge operation failed (e.g. zero pieces, mismatched shapes).
    Merge {
        split_type: &'static str,
        message: String,
    },
    /// The inputs of a stage disagreed on the total number of elements.
    ///
    /// The paper requires all split functions of a stage to produce the
    /// same number of splits (§3.4); Mozart checks this at runtime (§5.2).
    ElementMismatch { expected: u64, actual: u64 },
    /// A lazy value from a different [`MozartContext`](crate::MozartContext)
    /// was passed to this context.
    ForeignValue,
    /// A value handle was consumed before the graph produced it.
    ///
    /// Indicates an internal scheduling bug, or a `Future` whose result
    /// was discarded as dead and later requested.
    ValueUnavailable,
    /// A generic split type could not be inferred and no default splitter
    /// is registered for the argument's data type.
    NoDefaultSplit { type_name: &'static str },
    /// A runtime invariant of the annotation contract was violated: the
    /// checks of the paper's §7.1 "pedantic mode", which here always run.
    /// The split inputs of one batch disagree (one returned `NULL` where
    /// another produced a piece), a batch left an output without a
    /// piece, or the planner met a call it cannot type.
    Pedantic(String),
    /// The annotated library function itself reported a failure.
    Library(String),
    /// A split, library call, or merge **panicked** during execution.
    ///
    /// The executor catches the unwind at the phase boundary
    /// ([`FaultPhase`](crate::faultinject::FaultPhase) records which),
    /// so the panic fails only the submitting evaluation — the pool
    /// worker that ran the batch survives. Treated as *transient* by
    /// the serving layer (retried with backoff), because foreign
    /// library panics are routinely load- or state-dependent.
    TaskPanicked {
        /// The execution phase the panic unwound from.
        stage: crate::faultinject::FaultPhase,
        /// The panic payload, rendered as a message.
        payload: String,
    },
    /// The evaluation was abandoned at a batch-claim boundary because
    /// its [`CancelToken`](crate::faultinject::CancelToken) was
    /// cancelled or its deadline passed. Never retried.
    Cancelled(String),
    /// A fault injected by the active
    /// [`FaultPlan`](crate::faultinject::FaultPlan) (models a transient
    /// allocation or I/O failure). Treated as transient by the serving
    /// layer, like [`Error::TaskPanicked`].
    Injected(String),
    /// A [`Config`](crate::Config) field holds an unusable value (a zero
    /// `l2_bytes`, which the batch heuristic cannot size a stage by).
    /// Surfaced when the config is attached to a context rather than
    /// mis-scheduling later.
    InvalidConfig(String),
    /// The static verifier rejected an annotation or a stage plan
    /// before execution (see [`crate::verify`]); the context is
    /// poisoned rather than risk an unsound run.
    Verify(crate::verify::VerifyError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ArgType {
                function,
                arg,
                expected,
                actual,
            } => write!(
                f,
                "{function}: argument {arg} has type {actual}, expected {expected}"
            ),
            Error::ArgCount {
                function,
                expected,
                actual,
            } => write!(f, "{function}: expected {expected} arguments, got {actual}"),
            Error::Constructor {
                split_type,
                message,
            } => {
                write!(
                    f,
                    "constructor for split type {split_type} failed: {message}"
                )
            }
            Error::Split {
                split_type,
                message,
            } => {
                write!(f, "split for split type {split_type} failed: {message}")
            }
            Error::Merge {
                split_type,
                message,
            } => {
                write!(f, "merge for split type {split_type} failed: {message}")
            }
            Error::ElementMismatch { expected, actual } => write!(
                f,
                "stage inputs disagree on total elements: expected {expected}, got {actual}"
            ),
            Error::ForeignValue => {
                write!(f, "lazy value belongs to a different Mozart context")
            }
            Error::ValueUnavailable => {
                write!(f, "value has not been produced by the dataflow graph")
            }
            Error::NoDefaultSplit { type_name } => write!(
                f,
                "cannot infer split type and no default splitter registered for {type_name}"
            ),
            Error::Pedantic(m) => write!(f, "annotation contract violated: {m}"),
            Error::Library(m) => write!(f, "library function failed: {m}"),
            Error::TaskPanicked { stage, payload } => {
                write!(f, "{stage} panicked during execution: {payload}")
            }
            Error::Cancelled(m) => write!(f, "evaluation cancelled: {m}"),
            Error::Injected(m) => write!(f, "injected fault: {m}"),
            Error::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            Error::Verify(v) => write!(f, "static verification failed: {v}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::ArgType {
            function: "vd_add",
            arg: 1,
            expected: "VecValue",
            actual: "IntValue",
        };
        let s = e.to_string();
        assert!(s.contains("vd_add"));
        assert!(s.contains("VecValue"));
        assert!(s.contains("IntValue"));
    }

    #[test]
    fn fault_variants_render_their_context() {
        let e = Error::TaskPanicked {
            stage: crate::faultinject::FaultPhase::Merge,
            payload: "index out of bounds".into(),
        };
        let s = e.to_string();
        assert!(
            s.contains("merge") && s.contains("index out of bounds"),
            "{s}"
        );
        let e = Error::Cancelled("deadline exceeded".into());
        assert!(e.to_string().contains("cancelled"));
        let e = Error::Injected("alloc failure".into());
        assert!(e.to_string().contains("injected fault"));
    }

    #[test]
    fn element_mismatch_reports_both_counts() {
        let e = Error::ElementMismatch {
            expected: 10,
            actual: 20,
        };
        let s = e.to_string();
        assert!(s.contains("10") && s.contains("20"));
    }
}
