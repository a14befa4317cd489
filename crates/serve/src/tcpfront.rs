//! Hardened TCP front-end building blocks for the line protocol.
//!
//! The naive front-end (`BufReader::lines` in a thread per connection)
//! trusts the network in four ways an internet-facing service cannot:
//!
//! * **Unbounded request lines** — a client that never sends `\n`
//!   grows the line buffer without limit (a one-connection memory DoS).
//!   [`LineReader`] caps the line at
//!   [`FrontendConfig::max_line_bytes`], discards the oversize tail,
//!   and reports it as a typed `bad_request` instead of allocating.
//! * **Mid-request stalls** — a client that sends half a line and
//!   stops pins its thread forever. A per-read timeout
//!   ([`FrontendConfig::read_timeout`]) bounds how long a partial line
//!   may stall before the connection is dropped with a typed error.
//! * **Idle connections** — a client that connects and says nothing
//!   holds a thread and a socket. An idle timeout
//!   ([`FrontendConfig::idle_timeout`]) reaps it silently.
//! * **Unbounded connection counts** — every accept spawns a thread;
//!   enough connections exhaust the process. [`ConnLimiter`] caps
//!   concurrent connections and sheds *at accept time* with a typed
//!   `saturated` line, before a serving thread is ever spawned.
//!
//! [`serve_connection`] ties these into the full protocol dispatch
//! loop (parse → [`crate::PipelineService`] → reply) so the
//! `serve_tcp` example is a thin wrapper and integration tests can
//! drive a real listener through the same code path.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::error::ServeError;
use crate::protocol::{err_line, ok_line, parse_line, ClientLine};
use crate::service::PipelineService;

/// Front-end hardening knobs.
#[derive(Clone, Copy, Debug)]
pub struct FrontendConfig {
    /// Longest request line accepted, in bytes (newline excluded).
    /// Longer lines are discarded and answered with a typed
    /// `bad_request`. `0` is treated as `1`.
    pub max_line_bytes: usize,
    /// How long a *partial* request line may stall (bytes arrived but
    /// no newline) before the connection is dropped with a typed
    /// error. Bounds the thread a trickling client can pin.
    pub read_timeout: Duration,
    /// How long a connection may sit idle *between* requests before it
    /// is reaped silently.
    pub idle_timeout: Duration,
    /// Concurrent connections served; further accepts are shed with a
    /// typed `saturated` line before a thread is spawned. `0` =
    /// unlimited.
    pub max_connections: usize,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            max_line_bytes: 8 * 1024,
            read_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(300),
            max_connections: 256,
        }
    }
}

/// Counts concurrent connections and sheds over-cap accepts.
pub struct ConnLimiter {
    active: AtomicUsize,
    limit: usize,
    shed: AtomicUsize,
}

impl ConnLimiter {
    /// A limiter admitting at most `limit` concurrent connections
    /// (`0` = unlimited).
    pub fn new(limit: usize) -> Arc<ConnLimiter> {
        Arc::new(ConnLimiter {
            active: AtomicUsize::new(0),
            limit,
            shed: AtomicUsize::new(0),
        })
    }

    /// Try to admit one connection; `None` means the cap is reached
    /// (the shed counter is incremented). The returned guard releases
    /// the slot on drop.
    pub fn try_enter(self: &Arc<Self>) -> Option<ConnGuard> {
        let mut cur = self.active.load(Ordering::Relaxed);
        loop {
            if self.limit != 0 && cur >= self.limit {
                self.shed.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            match self.active.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(ConnGuard(self.clone())),
                Err(now) => cur = now,
            }
        }
    }

    /// Connections currently admitted.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Accepts shed at the cap so far.
    pub fn shed_total(&self) -> usize {
        self.shed.load(Ordering::Relaxed)
    }
}

/// RAII slot from [`ConnLimiter::try_enter`].
pub struct ConnGuard(Arc<ConnLimiter>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One read attempt's outcome from [`LineReader::next_line`].
#[derive(Debug)]
pub enum LineEvent {
    /// A complete request line (trailing `\r` stripped).
    Line(String),
    /// The line exceeded [`FrontendConfig::max_line_bytes`]. The
    /// oversize tail was discarded; `resynced` says whether the
    /// terminating newline was found (the connection may continue) or
    /// the discard cap/EOF was hit first (the caller should close).
    Oversize {
        /// Whether the stream is positioned at the next line.
        resynced: bool,
    },
    /// A complete line arrived but is not valid UTF-8. The stream is
    /// synced to the next line.
    BadUtf8,
    /// No bytes arrived within the idle timeout while between
    /// requests: reap the connection silently.
    Idle,
    /// A partial line stalled past the read timeout: the client is
    /// trickling or wedged mid-request.
    Stalled,
    /// The peer closed the connection (any partial line is dropped —
    /// a half-written request is never dispatched).
    Eof,
    /// A transport error other than a timeout.
    Io(std::io::Error),
}

/// Bounded, timeout-aware line reader.
///
/// Generic over [`Read`] so the parsing/bounding logic is unit-testable
/// on in-memory buffers; pass the underlying [`TcpStream`] via `sock`
/// to arm the idle/stall timeouts (socket read timeouts surface as
/// [`std::io::ErrorKind::WouldBlock`]/`TimedOut`, which the reader maps
/// to [`LineEvent::Idle`] or [`LineEvent::Stalled`] depending on
/// whether a partial line exists).
pub struct LineReader<'a, R: Read> {
    inner: R,
    cfg: &'a FrontendConfig,
    sock: Option<&'a TcpStream>,
    /// Bytes read from the stream but not yet returned as lines.
    pending: Vec<u8>,
}

impl<'a, R: Read> LineReader<'a, R> {
    /// Wrap `inner`; see the type docs for `sock`.
    pub fn new(inner: R, cfg: &'a FrontendConfig, sock: Option<&'a TcpStream>) -> Self {
        LineReader {
            inner,
            cfg,
            sock,
            pending: Vec::new(),
        }
    }

    fn arm_timeout(&self) {
        if let Some(s) = self.sock {
            let t = if self.pending.is_empty() {
                self.cfg.idle_timeout
            } else {
                self.cfg.read_timeout
            };
            // Zero would mean "no timeout" to set_read_timeout; clamp.
            let _ = s.set_read_timeout(Some(t.max(Duration::from_millis(1))));
        }
    }

    /// Read until `\n`, the byte cap, a timeout, or EOF.
    pub fn next_line(&mut self) -> LineEvent {
        let cap = self.cfg.max_line_bytes.max(1);
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.pending.drain(..=pos).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                if line.len() > cap {
                    return LineEvent::Oversize { resynced: true };
                }
                return match String::from_utf8(line) {
                    Ok(s) => LineEvent::Line(s),
                    Err(_) => LineEvent::BadUtf8,
                };
            }
            if self.pending.len() > cap {
                return self.discard_to_newline();
            }
            self.arm_timeout();
            match self.inner.read(&mut chunk) {
                Ok(0) => return LineEvent::Eof,
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e) => match e.kind() {
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                        return if self.pending.is_empty() {
                            LineEvent::Idle
                        } else {
                            LineEvent::Stalled
                        };
                    }
                    std::io::ErrorKind::Interrupted => continue,
                    _ => return LineEvent::Io(e),
                },
            }
        }
    }

    /// The line overflowed: throw bytes away until its newline so the
    /// next request can be served, without ever buffering the tail.
    /// Discarding is itself capped (64 × the line cap) — a client
    /// streaming an endless newline-free body is dropped, not served
    /// as a disk-null.
    fn discard_to_newline(&mut self) -> LineEvent {
        let discard_cap = self.cfg.max_line_bytes.max(1).saturating_mul(64);
        let mut discarded = 0usize;
        // Anything already buffered past the cap counts too.
        if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
            self.pending.drain(..=pos);
            return LineEvent::Oversize { resynced: true };
        }
        discarded += self.pending.len();
        self.pending.clear();
        let mut chunk = [0u8; 4096];
        loop {
            if discarded > discard_cap {
                return LineEvent::Oversize { resynced: false };
            }
            self.arm_timeout();
            match self.inner.read(&mut chunk) {
                Ok(0) => return LineEvent::Oversize { resynced: false },
                Ok(n) => {
                    if let Some(pos) = chunk[..n].iter().position(|&b| b == b'\n') {
                        self.pending.extend_from_slice(&chunk[pos + 1..n]);
                        return LineEvent::Oversize { resynced: true };
                    }
                    discarded += n;
                }
                Err(e) => match e.kind() {
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                        return LineEvent::Oversize { resynced: false };
                    }
                    std::io::ErrorKind::Interrupted => continue,
                    _ => return LineEvent::Oversize { resynced: false },
                },
            }
        }
    }
}

/// Send `reply` and its newline in one write. `writeln!` on a socket
/// issues a write per formatted piece, and under Nagle the trailing
/// newline then waits for the peer to acknowledge the first segment —
/// up to its 40 ms delayed-ACK timer, on every reply.
fn send_line(writer: &mut impl Write, mut reply: String) -> std::io::Result<()> {
    reply.push('\n');
    writer.write_all(reply.as_bytes())
}

/// Serve one connection end-to-end: one service session, one request
/// per line, hardened per `cfg`. Returns when the peer quits, goes
/// idle, stalls, overflows without resync, or closes. Every reply —
/// multi-line `METRICS` pages included — leaves in one write on a
/// `TCP_NODELAY` socket.
pub fn serve_connection(
    stream: TcpStream,
    service: &PipelineService,
    cfg: &FrontendConfig,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let session = service.session();
    let mut writer = stream.try_clone()?;
    let mut reader = LineReader::new(stream.try_clone()?, cfg, Some(&stream));
    loop {
        let line = match reader.next_line() {
            LineEvent::Line(l) => l,
            LineEvent::Oversize { resynced } => {
                let e = ServeError::BadRequest(format!(
                    "request line exceeds {} bytes",
                    cfg.max_line_bytes.max(1)
                ));
                send_line(&mut writer, err_line(&e))?;
                if resynced {
                    continue;
                }
                break;
            }
            LineEvent::BadUtf8 => {
                let e = ServeError::BadRequest("request line is not valid UTF-8".into());
                send_line(&mut writer, err_line(&e))?;
                continue;
            }
            LineEvent::Stalled => {
                let e = ServeError::BadRequest(format!(
                    "request stalled mid-line past {:?}",
                    cfg.read_timeout
                ));
                let _ = send_line(&mut writer, err_line(&e));
                break;
            }
            LineEvent::Idle | LineEvent::Eof => break,
            LineEvent::Io(e) => return Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        let reply = match parse_line(&line) {
            Ok(ClientLine::Quit) => {
                send_line(&mut writer, ok_line("bye"))?;
                break;
            }
            Ok(ClientLine::List) => ok_line(&service.pipeline_names().join(" ")),
            Ok(ClientLine::Stats) => ok_line(&stats_body(service)),
            Ok(ClientLine::Deadline(ms)) => {
                session.set_deadline((ms > 0).then(|| Duration::from_millis(ms)));
                ok_line(&format!("deadline_ms={ms}"))
            }
            Ok(ClientLine::Pipeline(fused)) => {
                session.set_pipeline(fused);
                ok_line(&format!("pipeline={}", u8::from(fused)))
            }
            Ok(ClientLine::Drain(timeout_ms)) => {
                let idle = service.drain(Duration::from_millis(timeout_ms));
                ok_line(&format!("draining idle={idle}"))
            }
            Ok(ClientLine::Metrics) => {
                // Multi-line reply: `OK lines=<n>` then n raw page lines.
                let page = service.metrics_text();
                let mut reply = ok_line(&format!("lines={}", page.lines().count()));
                for metric_line in page.lines() {
                    reply.push('\n');
                    reply.push_str(metric_line);
                }
                reply
            }
            Ok(ClientLine::Trace(id)) => match service.trace_tree(id) {
                Some(tree) => ok_line(&tree.render_line()),
                None => err_line(&ServeError::BadRequest(format!(
                    "no spans recorded for trace id {id}"
                ))),
            },
            Ok(ClientLine::Call(name, req)) => match session.call_traced(&name, &req) {
                // Tracing on: tell the client its trace id so it can
                // come back with `TRACE <id>`.
                (Ok(resp), Some(trace)) => ok_line(&format!("{} trace={trace}", resp.body)),
                (Ok(resp), None) => ok_line(&resp.body),
                (Err(e), _) => err_line(&e),
            },
            Err(e) => err_line(&e),
        };
        send_line(&mut writer, reply)?;
    }
    Ok(())
}

/// Accept loop with the connection cap: admitted connections get a
/// serving thread, over-cap accepts are shed in-line with a typed
/// `saturated` reply before any thread is spawned. Runs until the
/// listener errors out (i.e. forever, in practice).
pub fn accept_loop(listener: TcpListener, service: PipelineService, cfg: FrontendConfig) {
    let limiter = ConnLimiter::new(cfg.max_connections);
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        let Some(guard) = limiter.try_enter() else {
            let _ = send_line(
                &mut stream,
                format!(
                    "ERR saturated: connection limit {} reached; retry later",
                    cfg.max_connections
                ),
            );
            continue;
        };
        let service = service.clone();
        std::thread::spawn(move || {
            let _guard = guard;
            let peer = stream
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "?".into());
            if let Err(e) = serve_connection(stream, &service, &cfg) {
                eprintln!("connection {peer}: {e}");
            }
        });
    }
}

/// `STATS` body: `key=value` for every [`crate::stats::STAT_TABLE`]
/// row that names a key, in the rows' line positions — the stable
/// order [`crate::protocol`] documents.
pub fn stats_body(service: &PipelineService) -> String {
    let s = service.stats();
    let pairs: Vec<String> = crate::stats::stats_line_rows()
        .into_iter()
        .map(|(key, row)| format!("{key}={}", row.stats_value(&s)))
        .collect();
    pairs.join(" ")
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn cfg(max_line: usize) -> FrontendConfig {
        FrontendConfig {
            max_line_bytes: max_line,
            ..FrontendConfig::default()
        }
    }

    fn events(input: &[u8], max_line: usize) -> Vec<String> {
        let c = cfg(max_line);
        let mut r = LineReader::new(input, &c, None);
        let mut out = Vec::new();
        loop {
            match r.next_line() {
                LineEvent::Line(l) => out.push(format!("line:{l}")),
                LineEvent::Oversize { resynced } => {
                    out.push(format!("oversize:{resynced}"));
                    if !resynced {
                        // Without resync a real caller closes the
                        // connection; stop like serve_connection does.
                        break;
                    }
                }
                LineEvent::BadUtf8 => out.push("badutf8".into()),
                LineEvent::Eof => break,
                other => out.push(format!("{other:?}")),
            }
        }
        out
    }

    #[test]
    fn reads_lines_and_strips_cr() {
        assert_eq!(
            events(b"a b\r\nsecond\n", 64),
            vec!["line:a b".to_string(), "line:second".to_string()]
        );
    }

    #[test]
    fn partial_trailing_line_is_never_dispatched() {
        // A half-written request at EOF produces no Line event.
        assert_eq!(
            events(b"whole\nhalf-writ", 64),
            vec!["line:whole".to_string()]
        );
    }

    #[test]
    fn oversize_line_is_discarded_and_resyncs() {
        let mut input = vec![b'x'; 200];
        input.push(b'\n');
        input.extend_from_slice(b"after\n");
        assert_eq!(
            events(&input, 64),
            vec!["oversize:true".to_string(), "line:after".to_string()]
        );
    }

    #[test]
    fn endless_oversize_line_hits_the_discard_cap() {
        // 64 × cap bytes with no newline: give up without resync.
        let input = vec![b'y'; 64 * 64 + 4096 + 64];
        assert_eq!(events(&input, 64), vec!["oversize:false".to_string()]);
    }

    #[test]
    fn invalid_utf8_is_typed_not_fatal() {
        assert_eq!(
            events(b"\xff\xfe\n ok \n", 64),
            vec!["badutf8".to_string(), "line: ok ".to_string()]
        );
    }

    #[test]
    fn conn_limiter_caps_and_counts_sheds() {
        let l = ConnLimiter::new(2);
        let a = l.try_enter().expect("slot 1");
        let _b = l.try_enter().expect("slot 2");
        assert!(l.try_enter().is_none(), "cap reached");
        assert_eq!(l.shed_total(), 1);
        assert_eq!(l.active(), 2);
        drop(a);
        assert_eq!(l.active(), 1);
        assert!(l.try_enter().is_some(), "slot released");
    }

    #[test]
    fn unlimited_limiter_never_sheds() {
        let l = ConnLimiter::new(0);
        let guards: Vec<_> = (0..64).map(|_| l.try_enter().expect("slot")).collect();
        assert_eq!(l.active(), 64);
        assert_eq!(l.shed_total(), 0);
        drop(guards);
        assert_eq!(l.active(), 0);
    }
}
