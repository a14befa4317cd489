//! Typed errors of the serving layer.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Errors a [`PipelineService`](crate::PipelineService) reports to its
/// clients.
///
/// The variants are deliberately coarse: they map one-to-one onto the
/// wire protocol's `ERR <kind>` responses, so a remote client can react
/// (retry later on `Saturated`, fix the request on `BadRequest`) without
/// parsing prose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue is full: `max_inflight` requests are running
    /// and `queue_depth` more are already waiting. The backpressure
    /// signal — clients should shed load or retry with backoff.
    Saturated {
        /// Concurrent evaluations the service admits.
        max_inflight: usize,
        /// Waiters the admission queue holds beyond that.
        queue_depth: usize,
    },
    /// The session has exhausted its byte budget: the cumulative bytes
    /// split and merged on its behalf (tracked through the split info
    /// API's element sizes) reached the configured cap. Load shedding by
    /// *cost*, complementing the admission queue's shedding by *count* —
    /// a session issuing few but enormous requests is bounded all the
    /// same.
    OverBudget {
        /// The session whose budget ran out.
        session: u64,
        /// Bytes split + merged on the session's behalf so far.
        used_bytes: u64,
        /// The session's configured budget.
        budget_bytes: u64,
    },
    /// No pipeline registered under the requested name.
    UnknownPipeline(String),
    /// The request could not be parsed or is missing parameters.
    BadRequest(String),
    /// The request's deadline passed before its evaluation completed:
    /// while queued for admission, while parked in a coalesced batch
    /// waiting for its leader, or mid-evaluation (workers poll the
    /// deadline-carrying cancel token at batch-claim boundaries). The
    /// service never retries past a deadline; work already started is
    /// abandoned cooperatively, not torn down.
    DeadlineExceeded {
        /// The deadline the request carried, in milliseconds from
        /// arrival.
        deadline_ms: u64,
    },
    /// The service is draining (graceful shutdown): admission is closed
    /// and new requests are shed immediately while in-flight
    /// evaluations run to completion. Clients should reconnect
    /// elsewhere; retrying against a draining server cannot succeed.
    Draining,
    /// Admitting the request would push the process past its global
    /// memory ceiling (see `mozart_core::membudget`). Load shedding by
    /// *footprint*: the estimated allocation cost of the request (an
    /// EWMA of the pipeline's recent split + merge byte traffic) does
    /// not fit under the ceiling right now. Retryable once live memory
    /// drains.
    OverMemory {
        /// Live metered bytes at rejection time.
        live_bytes: u64,
        /// The process-wide ceiling.
        ceiling_bytes: u64,
        /// The request's estimated footprint.
        estimated_bytes: u64,
    },
    /// The pipeline's circuit breaker is open: recent evaluations
    /// failed with consecutive transient faults, so the service
    /// fast-fails new requests for this pipeline instead of burning
    /// pool time on work that is overwhelmingly likely to fail. A
    /// half-open probe closes the breaker as soon as one evaluation
    /// succeeds again.
    CircuitOpen {
        /// The pipeline whose breaker is open.
        pipeline: String,
    },
    /// The Mozart runtime failed while evaluating the pipeline.
    Runtime(mozart_core::Error),
}

impl ServeError {
    /// Short machine-readable kind, used by the wire protocol.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Saturated { .. } => "saturated",
            ServeError::OverBudget { .. } => "over_budget",
            ServeError::UnknownPipeline(_) => "unknown_pipeline",
            ServeError::BadRequest(_) => "bad_request",
            ServeError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServeError::Draining => "draining",
            ServeError::OverMemory { .. } => "over_memory",
            ServeError::CircuitOpen { .. } => "circuit_open",
            ServeError::Runtime(_) => "runtime",
        }
    }

    /// Whether the service may retry the request that produced this
    /// error. Only *transient* runtime failures qualify — a caught
    /// panic ([`mozart_core::Error::TaskPanicked`]) or an injected
    /// fault ([`mozart_core::Error::Injected`]); deterministic errors
    /// (bad requests, invalid configs, exhausted budgets) would fail
    /// identically on every attempt and are never retried.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ServeError::Runtime(
                mozart_core::Error::TaskPanicked { .. } | mozart_core::Error::Injected(_)
            )
        )
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Saturated {
                max_inflight,
                queue_depth,
            } => write!(
                f,
                "service saturated: {max_inflight} requests in flight and \
                 {queue_depth} queued; retry later"
            ),
            ServeError::OverBudget {
                session,
                used_bytes,
                budget_bytes,
            } => write!(
                f,
                "session {session} exceeded its byte budget: \
                 {used_bytes} of {budget_bytes} bytes used"
            ),
            ServeError::UnknownPipeline(name) => {
                write!(f, "no pipeline registered under {name:?}")
            }
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::DeadlineExceeded { deadline_ms } => write!(
                f,
                "deadline of {deadline_ms} ms passed before the request completed"
            ),
            ServeError::Draining => {
                write!(f, "service is draining; no new requests are admitted")
            }
            ServeError::OverMemory {
                live_bytes,
                ceiling_bytes,
                estimated_bytes,
            } => write!(
                f,
                "over memory ceiling: {live_bytes} bytes live of {ceiling_bytes}, \
                 request estimated at {estimated_bytes}; retry later"
            ),
            ServeError::CircuitOpen { pipeline } => write!(
                f,
                "circuit breaker open for pipeline {pipeline:?}; retry after cooldown"
            ),
            ServeError::Runtime(e) => write!(f, "pipeline evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mozart_core::Error> for ServeError {
    fn from(e: mozart_core::Error) -> Self {
        ServeError::Runtime(e)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn kinds_and_messages() {
        let e = ServeError::Saturated {
            max_inflight: 4,
            queue_depth: 8,
        };
        assert_eq!(e.kind(), "saturated");
        assert!(e.to_string().contains("retry later"));
        let e = ServeError::UnknownPipeline("nope".into());
        assert_eq!(e.kind(), "unknown_pipeline");
        assert!(e.to_string().contains("nope"));
        let e = ServeError::OverBudget {
            session: 3,
            used_bytes: 2048,
            budget_bytes: 1024,
        };
        assert_eq!(e.kind(), "over_budget");
        assert!(e.to_string().contains("2048"));
        assert!(e.to_string().contains("1024"));
        let e: ServeError = mozart_core::Error::ValueUnavailable.into();
        assert_eq!(e.kind(), "runtime");
        let e = ServeError::DeadlineExceeded { deadline_ms: 50 };
        assert_eq!(e.kind(), "deadline_exceeded");
        assert!(e.to_string().contains("50 ms"));
        assert_eq!(ServeError::Draining.kind(), "draining");
        let e = ServeError::OverMemory {
            live_bytes: 900,
            ceiling_bytes: 1000,
            estimated_bytes: 200,
        };
        assert_eq!(e.kind(), "over_memory");
        assert!(e.to_string().contains("900"));
        let e = ServeError::CircuitOpen {
            pipeline: "bs".into(),
        };
        assert_eq!(e.kind(), "circuit_open");
        assert!(e.to_string().contains("bs"));
    }

    #[test]
    fn only_panics_and_injected_faults_are_transient() {
        let transient: ServeError = mozart_core::Error::TaskPanicked {
            stage: mozart_core::FaultPhase::Task,
            payload: "boom".into(),
        }
        .into();
        assert!(transient.is_transient());
        let injected: ServeError = mozart_core::Error::Injected("task fault".into()).into();
        assert!(injected.is_transient());
        for deterministic in [
            ServeError::BadRequest("nope".into()),
            ServeError::UnknownPipeline("zap".into()),
            ServeError::Draining,
            ServeError::DeadlineExceeded { deadline_ms: 1 },
            ServeError::OverMemory {
                live_bytes: 1,
                ceiling_bytes: 2,
                estimated_bytes: 3,
            },
            ServeError::CircuitOpen {
                pipeline: "p".into(),
            },
            mozart_core::Error::InvalidConfig("bad".into()).into(),
            mozart_core::Error::Cancelled("late".into()).into(),
        ] {
            assert!(!deterministic.is_transient(), "{deterministic:?}");
        }
    }
}
