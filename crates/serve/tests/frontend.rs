//! Front-end hardening tests: a malformed/oversized/half-written
//! protocol corpus against a real TCP listener running
//! [`mozart_serve::tcpfront`]. Every abusive input must produce a
//! typed error or a clean close — never a hang, never an abort.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mozart_core::MozartContext;
use mozart_serve::tcpfront::{accept_loop, FrontendConfig};
use mozart_serve::{Pipeline, PipelineService, Request, Response};

struct PingPipeline;

impl Pipeline for PingPipeline {
    fn name(&self) -> &'static str {
        "ping"
    }
    fn run(&self, _ctx: &MozartContext, _req: &Request) -> mozart_core::Result<Response> {
        Ok(Response::new("pong"))
    }
}

/// Stand up a hardened listener on an ephemeral port; returns the
/// address and the service (for stats assertions). The listener thread
/// leaks — it blocks in accept() until the test process exits, exactly
/// like a signal-terminated server.
fn spawn_frontend(cfg: FrontendConfig) -> (std::net::SocketAddr, PipelineService) {
    let service = PipelineService::builder()
        .workers(1)
        .pipeline(Arc::new(PingPipeline))
        .build();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    {
        let service = service.clone();
        std::thread::spawn(move || accept_loop(listener, service, cfg));
    }
    (addr, service)
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn roundtrip(w: &mut TcpStream, r: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(w, "{line}").expect("send");
    let mut reply = String::new();
    r.read_line(&mut reply).expect("recv");
    reply
}

fn corpus_cfg() -> FrontendConfig {
    FrontendConfig {
        max_line_bytes: 128,
        read_timeout: Duration::from_millis(200),
        idle_timeout: Duration::from_millis(400),
        max_connections: 32,
    }
}

#[test]
fn malformed_corpus_gets_typed_errors_and_never_hangs() {
    let (addr, service) = spawn_frontend(corpus_cfg());
    let (mut w, mut r) = connect(addr);

    // Sanity: the happy path works.
    assert!(roundtrip(&mut w, &mut r, "ping").starts_with("OK pong"));

    // Garbage that parses as no known command.
    for garbage in [
        "FROBNICATE",
        "ping extra_without_equals",
        "ping =novalue",
        "WEIGHT over9000!",
        "STATS STATS",
    ] {
        let reply = roundtrip(&mut w, &mut r, garbage);
        assert!(reply.starts_with("ERR"), "{garbage:?} -> {reply:?}");
    }

    // Binary garbage: typed bad_request, connection survives.
    w.write_all(b"\x00\xff\xfe\x01\n").expect("send binary");
    let mut reply = String::new();
    r.read_line(&mut reply).expect("recv");
    assert!(reply.starts_with("ERR bad_request"), "{reply:?}");

    // Oversized line (cap 128): typed bad_request, tail discarded,
    // connection resyncs to the next request.
    let big = format!("ping x={}", "a".repeat(1024));
    let reply = roundtrip(&mut w, &mut r, &big);
    assert!(reply.starts_with("ERR bad_request"), "{reply:?}");
    assert!(reply.contains("exceeds"), "{reply:?}");
    assert!(roundtrip(&mut w, &mut r, "ping").starts_with("OK pong"));

    // The abuse never reached a pipeline evaluation it shouldn't have.
    let stats = service.stats();
    assert_eq!(stats.failed, 0, "{stats:?}");
    assert!(roundtrip(&mut w, &mut r, "QUIT").starts_with("OK bye"));
}

#[test]
fn half_written_request_is_never_dispatched() {
    let (addr, service) = spawn_frontend(corpus_cfg());
    let before = service.stats().started;
    {
        let (mut w, _r) = connect(addr);
        // No newline, then close: the fragment must be dropped.
        w.write_all(b"ping half-writ").expect("send partial");
    }
    // Give the serving thread a beat to observe the close.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        service.stats().started,
        before,
        "a half-written request must never be dispatched"
    );
}

#[test]
fn mid_line_stall_is_dropped_with_typed_error() {
    let (addr, _service) = spawn_frontend(corpus_cfg());
    let (mut w, mut r) = connect(addr);
    // Send half a request and stall past read_timeout (200ms).
    w.write_all(b"ping n=").expect("send partial");
    let start = Instant::now();
    let mut reply = String::new();
    r.read_line(&mut reply).expect("recv stall verdict");
    assert!(reply.starts_with("ERR bad_request"), "{reply:?}");
    assert!(reply.contains("stalled"), "{reply:?}");
    // ...followed by a close, well before the client's own timeout.
    let mut rest = String::new();
    assert_eq!(r.read_line(&mut rest).expect("eof"), 0, "{rest:?}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "stall verdict took {:?}",
        start.elapsed()
    );
}

#[test]
fn idle_connections_are_reaped_silently() {
    let (addr, _service) = spawn_frontend(corpus_cfg());
    let (mut w, mut r) = connect(addr);
    assert!(roundtrip(&mut w, &mut r, "ping").starts_with("OK pong"));
    // Say nothing past idle_timeout (400ms): the server closes without
    // a verdict line.
    let mut reply = String::new();
    let n = r.read_line(&mut reply).expect("eof on idle reap");
    assert_eq!(n, 0, "idle reap must be silent, got {reply:?}");
}

#[test]
fn connection_cap_sheds_at_accept_time() {
    let cfg = FrontendConfig {
        max_connections: 2,
        // Long idle so the held connections stay counted.
        idle_timeout: Duration::from_secs(30),
        ..corpus_cfg()
    };
    let (addr, _service) = spawn_frontend(cfg);
    let (mut w1, mut r1) = connect(addr);
    let (mut w2, mut r2) = connect(addr);
    // Both admitted connections work.
    assert!(roundtrip(&mut w1, &mut r1, "ping").starts_with("OK pong"));
    assert!(roundtrip(&mut w2, &mut r2, "ping").starts_with("OK pong"));
    // The third gets one typed saturated line, then a close, without a
    // serving thread ever existing for it.
    let over = TcpStream::connect(addr).expect("connect over cap");
    over.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reply = String::new();
    BufReader::new(over.try_clone().expect("clone"))
        .read_to_string(&mut reply)
        .expect("read shed reply");
    assert!(reply.starts_with("ERR saturated"), "{reply:?}");
    // Releasing a slot readmits.
    assert!(roundtrip(&mut w1, &mut r1, "QUIT").starts_with("OK bye"));
    std::thread::sleep(Duration::from_millis(100));
    let (mut w3, mut r3) = connect(addr);
    assert!(roundtrip(&mut w3, &mut r3, "ping").starts_with("OK pong"));
}

#[test]
fn verify_directive_is_a_bad_request() {
    let (addr, _service) = spawn_frontend(corpus_cfg());
    let (mut w, mut r) = connect(addr);
    // Plan verification is not a session setting, and sessions carry
    // no scheduling weight and no byte budget: each old directive is a
    // malformed call, typed bad_request, and the connection serves on.
    for line in [
        "VERIFY 1", "VERIFY 0", "WEIGHT 2", "WEIGHT 0", "BUDGET 5", "BUDGET 0",
    ] {
        let reply = roundtrip(&mut w, &mut r, line);
        assert!(
            reply.starts_with("ERR bad_request"),
            "{line:?} -> {reply:?}"
        );
        assert!(roundtrip(&mut w, &mut r, "ping").starts_with("OK pong"));
    }
    assert!(roundtrip(&mut w, &mut r, "QUIT").starts_with("OK bye"));
}

#[test]
fn replies_leave_in_one_segment() {
    // Regression (ISSUE 21): a reply and its newline left as two
    // segments, and the second waited out the client's 40 ms delayed
    // ACK — every request from a default (Nagle-on) client took 40 ms.
    let (addr, _service) = spawn_frontend(corpus_cfg());
    let (mut w, mut r) = connect(addr);
    let t0 = Instant::now();
    for _ in 0..20 {
        w.write_all(b"LIST\n").expect("send");
        let mut reply = String::new();
        r.read_line(&mut reply).expect("recv");
        assert_eq!(reply, "OK ping\n");
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(400),
        "20 sequential LIST round trips took {elapsed:?}"
    );
}
