//! The line-delimited wire protocol spoken by `examples/serve_tcp.rs`.
//!
//! Requests are single lines:
//!
//! ```text
//! <pipeline> [key=value]...      run a pipeline
//! DEADLINE <ms>                  set this session's default request deadline (0 = none)
//! PIPELINE <0|1>                 set this session's stage evaluation mode (1 = fused
//!                                pipelines, the default; 0 = per-call stages that
//!                                merge and re-split at every call boundary)
//! DRAIN [timeout_ms]             gracefully drain the service (close admission,
//!                                wait for in-flight work; default 5000 ms)
//! LIST                           list registered pipelines
//! STATS                          service counters
//! METRICS                        Prometheus-style metrics page (multi-line)
//! TRACE <id>                     one request's span tree (tracing only)
//! QUIT                           close the connection
//! ```
//!
//! Responses are single lines: `OK <body>` or `ERR <kind>: <message>`,
//! with `<kind>` from [`ServeError::kind`]. Everything is UTF-8, no
//! framing beyond `\n` — trivially scriptable with `nc`.
//!
//! Soundness checks are not a session setting: every stage plan is
//! verified before it runs, whatever the connection asks. There is no
//! `VERIFY` directive; a `VERIFY 1` line parses as a call whose operand
//! is not `key=value` and replies `ERR bad_request`.
//!
//! Pool workers join open jobs in submission order, so sessions carry
//! no scheduling weight. There is no `WEIGHT` directive either: a
//! `WEIGHT 2` line replies `ERR bad_request` the same way.
//!
//! Sessions meter the bytes split and merged on their behalf but carry
//! no byte budget, and the process has no memory ceiling: load is shed
//! by admission, deadlines and circuit breakers alone. There is no
//! `BUDGET` directive; a `BUDGET 5` line replies `ERR bad_request`.
//!
//! # Stable reply formats
//!
//! **`STATS`** replies `OK` followed by `key=value` pairs, one per
//! [`STAT_TABLE`](crate::stats::STAT_TABLE) row that names a `STATS`
//! key, ordered by the position the row declares. The table is the
//! list of keys; clients may read the line positionally because a new
//! key takes the next free position and an existing one never moves or
//! changes meaning (`tests/obs.rs` pins the sequence). The
//! request-outcome counters (the fields of
//! [`ServiceStats`](crate::ServiceStats) from `started` through
//! `engine`) come from **one** locked snapshot: a request is either
//! entirely counted or entirely absent, so `completed + failed +
//! deadline_shed <= started` always holds within one reply.
//!
//! **`METRICS`** is the protocol's only multi-line reply: `OK
//! lines=<n>` followed by exactly `n` raw lines of the Prometheus text
//! exposition format (see [`crate::metrics`] for the format contract
//! and `PipelineService::metrics_text` for the page's contents).
//!
//! **`TRACE <id>`** replies `OK` followed by the span tree in the
//! stable single-line rendering of `SpanTree::render_line`:
//! `trace=<id> e2e_us=<u> covered_us=<u> spans=<n>` then one
//! space-separated `<depth>:<kind>:worker=<w>:arg=<a>:link=<l>:`
//! `start_us=<u>:wall_us=<u>:cpu_us=<u>` token per span in depth-first
//! order. Unknown or expired trace ids (the ring buffers overwrite
//! oldest-first) reply `ERR bad_request`; on a service built without
//! tracing every `TRACE` replies `ERR bad_request`.
//!
//! A call line may carry `DEADLINE_MS=<ms>`: a **scheduling directive**,
//! not a pipeline parameter — it is stripped from the request's
//! parameter map (deadlines must never perturb coalescing fingerprints)
//! and sheds the request with `ERR deadline_exceeded` once it passes.
//! `DEADLINE_MS=0` sheds immediately, which makes the deadline path
//! scriptable deterministically.
//!
//! Duplicate `key=value` pairs on a call line are rejected with
//! `bad_request` rather than silently letting the last one win: a
//! client typo like `n=4096 n=8192` surfaces instead of running the
//! wrong size.

use crate::error::ServeError;
use crate::service::Request;

/// A parsed client line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientLine {
    /// Run the named pipeline with the given parameters.
    Call(String, Request),
    /// Set the connection session's default request deadline in
    /// milliseconds (0 clears it).
    Deadline(u64),
    /// Set the connection session's stage evaluation mode: `true`
    /// fuses whole pipelines (the default), `false` evaluates one
    /// stage per call and merges every intermediate at its boundary.
    Pipeline(bool),
    /// Gracefully drain the service, waiting up to the given timeout
    /// (milliseconds) for in-flight work.
    Drain(u64),
    /// List registered pipelines.
    List,
    /// Report service counters.
    Stats,
    /// Report the Prometheus-style metrics page (multi-line reply; see
    /// the module docs).
    Metrics,
    /// Report one request's span tree by trace id (tracing-enabled
    /// services only).
    Trace(u64),
    /// Close the connection.
    Quit,
}

/// Parse the single operand of a control line (`DEADLINE`, `TRACE`, ...).
fn parse_operand<T: std::str::FromStr>(
    head: &str,
    words: &mut std::str::SplitWhitespace<'_>,
) -> Result<T, ServeError> {
    let raw = words
        .next()
        .ok_or_else(|| ServeError::BadRequest(format!("{head} requires one integer operand")))?;
    if words.next().is_some() {
        return Err(ServeError::BadRequest(format!(
            "{head} takes exactly one operand"
        )));
    }
    raw.parse()
        .map_err(|_| ServeError::BadRequest(format!("{head} operand {raw:?} is not an integer")))
}

/// Parse one request line.
pub fn parse_line(line: &str) -> Result<ClientLine, ServeError> {
    let mut words = line.split_whitespace();
    let head = words
        .next()
        .ok_or_else(|| ServeError::BadRequest("empty request line".into()))?;
    // Zero-operand commands reject trailing junk: `STATS STATS` is a
    // confused client, not a request to be guessed at.
    let bare = |line: ClientLine, words: &mut std::str::SplitWhitespace<'_>| {
        if words.next().is_some() {
            return Err(ServeError::BadRequest(format!("{head} takes no operands")));
        }
        Ok(line)
    };
    match head {
        "LIST" => bare(ClientLine::List, &mut words),
        "STATS" => bare(ClientLine::Stats, &mut words),
        "METRICS" => bare(ClientLine::Metrics, &mut words),
        "TRACE" => Ok(ClientLine::Trace(parse_operand(head, &mut words)?)),
        "QUIT" => bare(ClientLine::Quit, &mut words),
        "DEADLINE" => Ok(ClientLine::Deadline(parse_operand(head, &mut words)?)),
        "PIPELINE" => match parse_operand::<u64>(head, &mut words)? {
            0 => Ok(ClientLine::Pipeline(false)),
            1 => Ok(ClientLine::Pipeline(true)),
            other => Err(ServeError::BadRequest(format!(
                "PIPELINE operand must be 0 or 1, got {other}"
            ))),
        },
        "DRAIN" => match words.next() {
            None => Ok(ClientLine::Drain(5_000)),
            Some(raw) => {
                if words.next().is_some() {
                    return Err(ServeError::BadRequest(
                        "DRAIN takes at most one operand".into(),
                    ));
                }
                raw.parse().map(ClientLine::Drain).map_err(|_| {
                    ServeError::BadRequest(format!("DRAIN operand {raw:?} is not an integer"))
                })
            }
        },
        name => {
            let mut req = Request::new();
            for word in words {
                let (key, value) = word.split_once('=').ok_or_else(|| {
                    ServeError::BadRequest(format!(
                        "parameter {word:?} is not of the form key=value"
                    ))
                })?;
                if key.is_empty() {
                    return Err(ServeError::BadRequest(format!(
                        "parameter {word:?} has an empty key"
                    )));
                }
                if key == "DEADLINE_MS" {
                    // A scheduling directive, not a pipeline parameter:
                    // it must not reach the parameter map (and thereby
                    // the coalescing fingerprint).
                    if req.deadline_ms().is_some() {
                        return Err(ServeError::BadRequest(
                            "DEADLINE_MS given more than once".into(),
                        ));
                    }
                    let ms = value.parse().map_err(|_| {
                        ServeError::BadRequest(format!("DEADLINE_MS={value} is not an integer"))
                    })?;
                    req.set_deadline_ms(Some(ms));
                    continue;
                }
                if req.get(key).is_some() {
                    return Err(ServeError::BadRequest(format!(
                        "parameter {key:?} given more than once"
                    )));
                }
                req.set(key, value);
            }
            Ok(ClientLine::Call(name.to_string(), req))
        }
    }
}

/// Format a successful response line.
pub fn ok_line(body: &str) -> String {
    format!("OK {body}")
}

/// Format an error response line.
pub fn err_line(e: &ServeError) -> String {
    format!("ERR {}: {e}", e.kind())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn parses_calls_and_controls() {
        match parse_line("black_scholes n=4096 seed=7").unwrap() {
            ClientLine::Call(name, req) => {
                assert_eq!(name, "black_scholes");
                assert_eq!(req.get("n"), Some("4096"));
                assert_eq!(req.get("seed"), Some("7"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(parse_line("LIST").unwrap(), ClientLine::List);
        assert_eq!(parse_line("STATS").unwrap(), ClientLine::Stats);
        assert_eq!(parse_line("QUIT").unwrap(), ClientLine::Quit);
    }

    #[test]
    fn parses_pipeline_lines() {
        assert_eq!(
            parse_line("PIPELINE 0").unwrap(),
            ClientLine::Pipeline(false)
        );
        assert_eq!(
            parse_line("PIPELINE 1").unwrap(),
            ClientLine::Pipeline(true)
        );
        for bad in ["PIPELINE", "PIPELINE 2", "PIPELINE x", "PIPELINE 0 1"] {
            assert!(
                matches!(parse_line(bad), Err(ServeError::BadRequest(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn verify_lines_are_bad_requests() {
        // Plan verification always runs; no line turns it on or off.
        // Sessions carry no scheduling weight and no byte budget; no
        // line sets either.
        for bad in [
            "VERIFY 0",
            "VERIFY 1",
            "VERIFY x",
            "VERIFY 0 1",
            "WEIGHT 0",
            "WEIGHT 2",
            "WEIGHT two",
            "WEIGHT 1 2",
            "BUDGET 0",
            "BUDGET 5",
            "BUDGET lots",
            "BUDGET 1 2",
        ] {
            assert!(
                matches!(parse_line(bad), Err(ServeError::BadRequest(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn parses_deadline_and_drain_lines() {
        assert_eq!(
            parse_line("DEADLINE 250").unwrap(),
            ClientLine::Deadline(250)
        );
        assert_eq!(parse_line("DEADLINE 0").unwrap(), ClientLine::Deadline(0));
        assert_eq!(parse_line("DRAIN").unwrap(), ClientLine::Drain(5_000));
        assert_eq!(parse_line("DRAIN 100").unwrap(), ClientLine::Drain(100));
        for bad in [
            "DEADLINE",
            "DEADLINE x",
            "DEADLINE 1 2",
            "DRAIN x",
            "DRAIN 1 2",
        ] {
            assert!(
                matches!(parse_line(bad), Err(ServeError::BadRequest(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn deadline_ms_is_a_directive_not_a_parameter() {
        match parse_line("black_scholes n=64 DEADLINE_MS=50").unwrap() {
            ClientLine::Call(name, req) => {
                assert_eq!(name, "black_scholes");
                assert_eq!(req.deadline_ms(), Some(50));
                // Stripped from the parameter map: two calls differing
                // only in deadline must keep identical fingerprints.
                assert_eq!(req.get("DEADLINE_MS"), None);
                assert_eq!(req.get("n"), Some("64"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_line("bs DEADLINE_MS=0").is_ok());
        assert!(parse_line("bs DEADLINE_MS=x").is_err());
        assert!(parse_line("bs DEADLINE_MS=1 DEADLINE_MS=2").is_err());
    }

    #[test]
    fn parses_metrics_and_trace_lines() {
        assert_eq!(parse_line("METRICS").unwrap(), ClientLine::Metrics);
        assert_eq!(parse_line("TRACE 42").unwrap(), ClientLine::Trace(42));
        assert_eq!(parse_line("TRACE 0").unwrap(), ClientLine::Trace(0));
        for bad in ["TRACE", "TRACE x", "TRACE 1 2", "TRACE -1"] {
            assert!(
                matches!(parse_line(bad), Err(ServeError::BadRequest(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn rejects_duplicate_parameters() {
        // Regression (ISSUE 4): duplicates used to overwrite silently
        // (last one won), hiding client typos.
        let err = parse_line("bs n=4096 n=8192").unwrap_err();
        match err {
            ServeError::BadRequest(m) => assert!(m.contains("more than once"), "{m}"),
            other => panic!("unexpected {other:?}"),
        }
        // Same key, same value is still a duplicate.
        assert!(parse_line("bs seed=1 seed=1").is_err());
        // Distinct keys are fine.
        assert!(parse_line("bs n=1 seed=1").is_ok());
    }

    #[test]
    fn zero_operand_commands_reject_trailing_junk() {
        for bad in ["LIST x", "STATS STATS", "METRICS 1", "QUIT now"] {
            assert!(
                matches!(parse_line(bad), Err(ServeError::BadRequest(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(matches!(parse_line("   "), Err(ServeError::BadRequest(_))));
        assert!(matches!(
            parse_line("bs n4096"),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            parse_line("bs =3"),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn response_lines_roundtrip_kind() {
        assert_eq!(ok_line("x=1"), "OK x=1");
        let e = ServeError::UnknownPipeline("zap".into());
        let line = err_line(&e);
        assert!(line.starts_with("ERR unknown_pipeline:"));
        assert!(line.contains("zap"));
    }
}
