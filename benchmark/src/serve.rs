//! `serve.mix`: an in-process `PipelineService` behind the TCP line
//! front-end, driven by two clients in a closed loop with a seeded mix of
//! four small pipelines. One operation is one request, timed by the
//! client from the send of the line to the full reply line, and checked
//! against what the base library computes for the inputs that request
//! names.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use mozart_serve::protocol::{parse_line, ClientLine};
use mozart_serve::tcpfront::{accept_loop, FrontendConfig};
use mozart_serve::{PipelineService, ServiceStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::{black_scholes as bs, crime_index, haversine, images};

use crate::batch::worker_imbalance;
use crate::contract::{Reduction, RunArgs, RunOutput, ThreadOps, WORKERS};
use crate::layers;
use crate::spans::SpanLog;
use crate::stats::median;

/// Client threads, one connection each. The line protocol is blocking
/// request → reply, so a caller that waits for its reply before sending
/// the next request is the only kind of caller it has: a closed loop.
const CLIENTS: usize = WORKERS;

/// Times set-up runs per process; `setup_s` is the median.
const SETUPS: usize = 5;

/// How the window becomes the end-to-end metrics. On the seed commit every reply
/// waits out a 40 ms delayed-ACK timer (see the README), a 10 s window
/// completes ~440 requests, and p95 is the highest percentile with ten
/// samples beyond it.
const HOW: Reduction = Reduction {
    tail_pct: 95.0,
    quiet_windows_of: None,
};

/// Rounds of one request per mix entry sent before anything is timed:
/// they fill the pipelines' input memo and the plan cache.
const WARM_UP_ROUNDS: usize = 3;

/// The traced pass alternates between the untraced and the traced
/// service in slices of this length, so drift hits both.
const SLICE: Duration = Duration::from_millis(500);

/// The TCP-versus-in-process comparison stops at this many requests per
/// side or after [`FRONTEND_PROBE_WINDOW`], whichever comes first.
const FRONTEND_PROBE_REQUESTS: usize = 2000;
const FRONTEND_PROBE_WINDOW: Duration = Duration::from_secs(2);

/// Inputs of one mix entry, generated by the same seeded generators the
/// server's pipelines use for the `seed=` a request line carries.
enum MixInput {
    BlackScholes(bs::Inputs),
    Haversine(haversine::Inputs),
    Nashville(imagelib::Image),
    CrimeIndex(dataframe::DataFrame),
}

impl MixInput {
    /// The numbers of the reply body, computed by the un-annotated
    /// library, in the order the pipeline prints them.
    fn base(&self) -> Vec<f64> {
        match self {
            MixInput::BlackScholes(inp) => {
                let s = bs::mkl_base(inp);
                vec![s.call_sum, s.put_sum]
            }
            MixInput::Haversine(inp) => vec![haversine::mkl_base(inp).dist_sum],
            MixInput::Nashville(img) => vec![images::nashville_base(img).mean],
            MixInput::CrimeIndex(df) => {
                vec![crime_index::score_base(df).f64s().iter().sum()]
            }
        }
    }
}

struct Entry {
    /// The request line, newline included.
    line: String,
    /// Share of the traffic, in percent.
    weight: u32,
    input: MixInput,
    reference: Vec<f64>,
}

impl Entry {
    /// The pipeline the line addresses.
    fn pipeline(&self) -> &str {
        self.line.split_whitespace().next().unwrap_or("?")
    }
}

/// The request mix of one run.
pub struct Mix {
    entries: Vec<Entry>,
}

impl Mix {
    /// The mix for `seed`: four request lines whose `seed=` parameters
    /// are drawn from `seed`, with their references.
    pub fn generate(seed: u64) -> Mix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut next = || rng.gen_range(1..1u64 << 32);
        let (s_bs, s_hv, s_im, s_ci) = (next(), next(), next(), next());
        let entry = |line: String, weight, input: MixInput| Entry {
            reference: input.base(),
            line,
            weight,
            input,
        };
        Mix {
            entries: vec![
                entry(
                    format!("black_scholes n=16384 seed={s_bs}\n"),
                    50,
                    MixInput::BlackScholes(bs::generate(16384, s_bs)),
                ),
                entry(
                    format!("haversine n=16384 seed={s_hv}\n"),
                    25,
                    MixInput::Haversine(haversine::generate(16384, s_hv)),
                ),
                entry(
                    format!("nashville width=320 height=240 seed={s_im}\n"),
                    15,
                    MixInput::Nashville(images::generate(320, 240, s_im)),
                ),
                entry(
                    format!("crime_index rows=32768 seed={s_ci}\n"),
                    10,
                    MixInput::CrimeIndex(crime_index::generate(32768, s_ci)),
                ),
            ],
        }
    }

    /// Draw the index of the next request's entry.
    fn draw(&self, rng: &mut StdRng) -> usize {
        let total: u32 = self.entries.iter().map(|e| e.weight).sum();
        let mut r = rng.gen_range(0..total);
        for (i, e) in self.entries.iter().enumerate() {
            if r < e.weight {
                return i;
            }
            r -= e.weight;
        }
        unreachable!("the weights sum to the range drawn from")
    }

    fn lines(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|e| e.line.trim_end().to_string())
            .collect()
    }

    /// `Σ weight·value ÷ Σ weight` over one value per entry.
    fn weighted(&self, per_entry: &[f64]) -> f64 {
        let total: u32 = self.entries.iter().map(|e| e.weight).sum();
        self.entries
            .iter()
            .zip(per_entry)
            .map(|(e, v)| f64::from(e.weight) * v)
            .sum::<f64>()
            / f64::from(total)
    }
}

/// The client's random stream for `client`, distinct per client and
/// reproducible per seed.
fn client_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A reply is correct when it is `OK`, carries as many `key=value`
/// numbers as the reference, and each matches. Bodies print six
/// decimals, so half a unit of the last one is allowed on top of the
/// relative tolerance. A tracing service appends `trace=<id>`.
pub fn reply_is_correct(reply: &str, reference: &[f64]) -> bool {
    let Some(body) = reply.strip_prefix("OK ") else {
        return false;
    };
    let got: Option<Vec<f64>> = body
        .split_whitespace()
        .filter(|kv| !kv.starts_with("trace="))
        .map(|kv| kv.split_once('=').and_then(|(_, v)| v.parse().ok()))
        .collect();
    got.is_some_and(|got| {
        got.len() == reference.len()
            && got
                .iter()
                .zip(reference)
                .all(|(g, r)| (g - r).abs() <= 6e-7 + 1e-9 * r.abs())
    })
}

/// One blocking line-protocol connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Client {
    fn connect(addr: SocketAddr, log: &mut SpanLog) -> Result<Client, String> {
        log.span("connect", |_| {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            stream
                .set_nodelay(true)
                .map_err(|e| format!("nodelay: {e}"))?;
            // A server that never answers must fail the run, not hang it.
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .map_err(|e| format!("read timeout: {e}"))?;
            let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
            Ok(Client {
                stream,
                reader,
                reply: String::new(),
            })
        })
    }

    /// Send one request line and wait for the reply line. An I/O error
    /// or a closed connection is an empty reply, which no reference
    /// matches.
    fn request(&mut self, line: &str, log: &mut SpanLog) -> &str {
        self.reply.clear();
        let sent = log.span("send", |_| self.stream.write_all(line.as_bytes()));
        if sent.is_ok() {
            let _ = log.span("recv", |_| self.reader.read_line(&mut self.reply));
        }
        self.reply.trim_end()
    }
}

/// A service with its listener and one connection per client.
struct Served {
    service: PipelineService,
    clients: Vec<Client>,
}

/// Everything between process start and the first timed request:
/// service and pool construction, listener, connections, and warm-up.
fn setup(mix: &Mix, tracing: bool, log: &mut SpanLog) -> Result<Served, String> {
    log.span("setup", |log| {
        let service = log.span("service_build", |_| {
            PipelineService::builder()
                .workers(WORKERS)
                .builtin_pipelines()
                .tracing(tracing)
                .build()
        });
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
        // `accept_loop` owns the listener and never returns; the thread
        // is left blocked in `accept` and ends with the process.
        let front = service.clone();
        std::thread::spawn(move || accept_loop(listener, front, FrontendConfig::default()));
        let mut clients = (0..CLIENTS)
            .map(|_| Client::connect(addr, log))
            .collect::<Result<Vec<_>, _>>()?;
        log.span("warm_up", |log| {
            for _ in 0..WARM_UP_ROUNDS {
                for e in &mix.entries {
                    for c in clients.iter_mut() {
                        if !reply_is_correct(c.request(&e.line, log), &e.reference) {
                            return Err(format!(
                                "warm-up request {:?} got {:?}",
                                e.line.trim_end(),
                                c.reply.trim_end()
                            ));
                        }
                    }
                }
            }
            Ok(())
        })?;
        Ok(Served { service, clients })
    })
}

/// What one client saw of one target.
#[derive(Default)]
struct Tally {
    ops: ThreadOps,
    /// The mix entry of each request.
    entry: Vec<u8>,
    failed: u64,
}

/// Drive the closed loop for `seconds`: every client thread owns one
/// connection per target and sends to target `(elapsed / SLICE) mod
/// targets`. Returns, per client, its tallies per target and its spans.
fn drive(
    mix: &Mix,
    seed: u64,
    seconds: f64,
    mut per_client: Vec<Vec<&mut Client>>,
    epoch: Instant,
    spans: bool,
) -> Vec<(Vec<Tally>, SpanLog)> {
    let window = Duration::from_secs_f64(seconds);
    // A window shorter than two slices still visits every target.
    let slice = SLICE.min(window / 4).max(Duration::from_millis(1));
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = per_client
            .iter_mut()
            .enumerate()
            .map(|(i, targets)| {
                s.spawn(move || {
                    let mut log = SpanLog::new(epoch, i as u32 + 1, spans);
                    let mut rng = client_rng(seed, i);
                    let mut tallies: Vec<Tally> =
                        targets.iter().map(|_| Tally::default()).collect();
                    loop {
                        let elapsed = start.elapsed();
                        if elapsed >= window && !tallies[0].ops.latency_s.is_empty() {
                            break;
                        }
                        let t = (elapsed.as_nanos() / slice.as_nanos()) as usize % targets.len();
                        let e = mix.draw(&mut rng);
                        let entry = &mix.entries[e];
                        let t0 = Instant::now();
                        let ok = log.span("request", |log| {
                            reply_is_correct(targets[t].request(&entry.line, log), &entry.reference)
                        });
                        tallies[t]
                            .ops
                            .push(t0.elapsed().as_secs_f64(), start.elapsed().as_secs_f64());
                        tallies[t].entry.push(e as u8);
                        tallies[t].failed += u64::from(!ok);
                    }
                    (tallies, log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// All latencies of target `t`, in milliseconds, over every client.
fn latencies_ms(results: &[(Vec<Tally>, SpanLog)], t: usize) -> Vec<f64> {
    results
        .iter()
        .flat_map(|(tallies, _)| tallies[t].ops.latency_s.iter().map(|s| s * 1e3))
        .collect()
}

/// Median latency per mix entry of target `t`, in milliseconds.
fn per_entry_median_ms(mix: &Mix, results: &[(Vec<Tally>, SpanLog)], t: usize) -> Vec<f64> {
    (0..mix.entries.len())
        .map(|e| {
            let ms: Vec<f64> = results
                .iter()
                .flat_map(|(tallies, _)| {
                    let tally = &tallies[t];
                    tally
                        .ops
                        .latency_s
                        .iter()
                        .zip(&tally.entry)
                        .filter(move |(_, &k)| k as usize == e)
                        .map(|(s, _)| s * 1e3)
                })
                .collect();
            median(&ms)
        })
        .collect()
}

/// The untraced pass: the end-to-end metrics.
pub fn run_end_to_end(args: &RunArgs) -> Result<RunOutput, String> {
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch, 0, false);
    let mix = Mix::generate(args.seed);
    let mut setup_s = Vec::new();
    let mut served = None;
    for _ in 0..SETUPS {
        // Closing the previous set-up's connections ends its serving
        // threads; its pool is dropped with the last service clone the
        // idle listener thread holds, at process exit.
        drop(served.take());
        let t0 = Instant::now();
        served = Some(setup(&mix, false, &mut log)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut served = served.expect("SETUPS is at least one");

    let before = served.service.stats();
    let targets = served.clients.iter_mut().map(|c| vec![c]).collect();
    let mut results = drive(&mix, args.seed, args.seconds, targets, epoch, false);
    let after = served.service.stats();

    let failed: u64 = results.iter().map(|(t, _)| t[0].failed).sum();
    let per_entry_ms = per_entry_median_ms(&mix, &results, 0);
    let threads: Vec<ThreadOps> = results
        .iter_mut()
        .map(|(t, _)| std::mem::take(&mut t[0].ops))
        .collect();
    let mut out = RunOutput::end_to_end(&threads, failed, &setup_s, HOW);
    for (e, p50) in mix.entries.iter().zip(per_entry_ms) {
        out.detail(format!("p50_ms.{}", e.pipeline()), p50, "ms");
    }
    service_counters(&mut out, &before, &after);
    out.detail("peak_rss_mb", crate::envstamp::peak_rss_mb(), "MB");
    closed_loop_notes(&mut out);
    Ok(out)
}

fn closed_loop_notes(out: &mut RunOutput) {
    out.notes.push(format!(
        "closed loop: {CLIENTS} clients, one connection each; a client sends its next request \
         only after the previous reply, so a slower server receives less load"
    ));
    out.notes.push(
        "with at most 2 requests in flight admission never queues and coalescing rarely fires; \
         those two layers are measured by direct calls in the traced pass (concat.concat_slice_us, \
         service.phase_p50_us.admission_wait), not by this traffic; an arrival-schedule workload needs \
         a larger machine and is a later benchmark change"
            .into(),
    );
}

/// Counters of the serving layers over the window: work refused, shed,
/// retried or shared.
fn service_counters(out: &mut RunOutput, before: &ServiceStats, after: &ServiceStats) {
    let completed = (after.completed - before.completed).max(1) as f64;
    out.detail(
        "service.coalesced_ratio",
        (after.coalesced_requests - before.coalesced_requests) as f64 / completed,
        "ratio",
    );
    out.detail(
        "service.rejected",
        (after.rejected - before.rejected) as f64,
        "count",
    );
    out.detail(
        "service.queue_shed",
        (after.queue_shed - before.queue_shed) as f64,
        "count",
    );
    out.detail(
        "service.retries",
        (after.retries - before.retries) as f64,
        "count",
    );
    out.detail(
        "service.failed",
        (after.failed - before.failed) as f64,
        "count",
    );
    out.detail(
        "service.admission_limit",
        after.admission_limit as f64,
        "count",
    );
}

/// The traced pass: two services, one with `ServiceBuilder::tracing`,
/// driven alternately by the same clients; the traced service's
/// histograms attribute the request latency to phases, and direct calls
/// time the layers the traffic cannot isolate.
pub fn run_traced(
    args: &RunArgs,
    log: &mut SpanLog,
    epoch: Instant,
) -> Result<(RunOutput, Vec<SpanLog>), String> {
    let mix = log.span("generate", |_| Mix::generate(args.seed));
    let mut off = setup(&mix, false, log)?;
    let mut on = setup(&mix, true, log)?;
    let before = on.service.stats();
    let metrics_before = on.service.metrics();

    let targets = off
        .clients
        .iter_mut()
        .zip(on.clients.iter_mut())
        .map(|(a, b)| vec![a, b])
        .collect();
    let results = drive(&mix, args.seed, args.seconds, targets, epoch, true);
    let after = on.service.stats();
    let metrics = on
        .service
        .metrics()
        .ok_or("the traced service reports no metrics")?;

    let (off_ms, on_ms) = (latencies_ms(&results, 0), latencies_ms(&results, 1));
    let failed: u64 = results
        .iter()
        .flat_map(|(t, _)| t.iter().map(|t| t.failed))
        .sum();
    let requests_on = on_ms.len().max(1) as f64;

    // Phase histograms are cumulative; the warm-up's few samples are
    // subtracted from the sums and counts, and medians are taken as they
    // stand (a dozen warm-up samples cannot move a median of thousands).
    let warm = metrics_before.ok_or("the traced service reports no metrics")?;
    // `(name, mean µs over the window, p50 µs)` in `PHASE_NAMES` order,
    // which both snapshots share.
    let phases: Vec<(&str, f64, f64)> = metrics
        .phases
        .iter()
        .zip(&warm.phases)
        .map(|((name, h), (_, h0))| {
            let mean_ns = (h.sum - h0.sum) as f64 / (h.count - h0.count).max(1) as f64;
            (*name, mean_ns / 1e3, h.p50() as f64 / 1e3)
        })
        .collect();
    let of = |name: &str| {
        phases
            .iter()
            .find(|p| p.0 == name)
            .map_or(f64::NAN, |p| p.1)
    };
    let accounted_us: f64 = phases.iter().map(|p| p.1).sum();
    let e2e_p50_us = metrics.e2e.p50() as f64 / 1e3;
    let admission_p50_us = metrics.admission_wait.p50() as f64 / 1e3;

    // The base library on the same inputs, one call per entry and round.
    let mut base_ms: Vec<Vec<f64>> = mix.entries.iter().map(|_| Vec::new()).collect();
    log.span("base_calls", |log| {
        for _ in 0..20 {
            for (e, ms) in mix.entries.iter().zip(base_ms.iter_mut()) {
                let t0 = Instant::now();
                std::hint::black_box(log.span("base_call", |_| e.input.base()));
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
    });
    let base_mix_ms = mix.weighted(&base_ms.iter().map(|ms| median(ms)).collect::<Vec<_>>());
    let served_mix_ms = mix.weighted(&per_entry_median_ms(&mix, &results, 0));

    let hits = (after.plan_cache.hits - before.plan_cache.hits) as f64;
    let misses = (after.plan_cache.misses - before.plan_cache.misses) as f64;
    let batches: u64 = after.pool.per_worker_batches.iter().sum::<u64>()
        - before.pool.per_worker_batches.iter().sum::<u64>();

    let mut out = RunOutput {
        attempted: (off_ms.len() + on_ms.len()) as u64,
        failed,
        ..RunOutput::default()
    };
    out.metric("planner.plan_us", of("planner"), "us");
    out.metric(
        "planner.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    let bs_entry = &mix.entries[0];
    let (miss_us, hit_us) = layers::planner_miss_vs_hit(
        &|ctx| match &bs_entry.input {
            MixInput::BlackScholes(inp) => bs::mkl_mozart(inp, ctx).map(|_| ()),
            _ => unreachable!("the first mix entry is black_scholes"),
        },
        log,
    )?;
    out.metric("planner.miss_us", miss_us, "us");
    out.metric("planner.hit_us", hit_us, "us");
    out.metric("buffer.unprotect_us", of("unprotect"), "us");
    out.metric("split.split_us", of("split"), "us");
    out.metric("split.merge_us", of("merge"), "us");
    out.metric("split.merge_share", of("merge") / accounted_us, "ratio");
    let probe = layers::split_probe(&layers::array_subject(16384), log)?;
    out.metric("split.ns_per_piece", probe.ns_per_piece, "ns");
    out.metric("split.merge_gbps", probe.merge_gbps, "GB/s");
    out.metric("split.copy_gbps", probe.copy_gbps, "GB/s");
    out.detail("split.probe_pieces", probe.pieces as f64, "count");
    out.metric("executor.task_us", of("task"), "us");
    out.metric("executor.task_share", of("task") / accounted_us, "ratio");
    out.metric(
        "executor.batches_per_op",
        batches as f64 / requests_on,
        "count",
    );
    out.metric("pool.roundtrip_us", layers::pool_roundtrip_us(log)?, "us");
    out.metric(
        "pool.worker_imbalance",
        worker_imbalance(&before.pool, &after.pool),
        "ratio",
    );
    out.metric(
        "pool.parks_per_op",
        (after.pool.parks - before.pool.parks) as f64 / requests_on,
        "count",
    );
    // On this workload the share is of medians: Σ phase p50 ÷ the
    // service's own end-to-end p50.
    out.metric(
        "attributed_share",
        phases.iter().map(|p| p.2).sum::<f64>() / e2e_p50_us,
        "ratio",
    );
    out.metric("base_ms", base_mix_ms, "ms");
    out.metric("speedup_vs_base", base_mix_ms / served_mix_ms, "ratio");
    out.metric("trace_overhead", median(&on_ms) / median(&off_ms), "ratio");

    out.detail("untraced_samples", off_ms.len() as f64, "count");
    out.detail("traced_samples", on_ms.len() as f64, "count");
    out.detail("untraced_p50_ms", median(&off_ms), "ms");
    out.detail("traced_p50_ms", median(&on_ms), "ms");
    out.detail("served_mix_ms", served_mix_ms, "ms");
    for (name, _, p50) in &phases {
        out.detail(format!("service.phase_p50_us.{name}"), *p50, "us");
    }
    out.detail(
        "service.phase_p50_us.admission_wait",
        admission_p50_us,
        "us",
    );
    out.detail("service.e2e_p50_us", e2e_p50_us, "us");
    out.detail("service.e2e_p99_us", metrics.e2e.p99() as f64 / 1e3, "us");
    let unprotect = metrics.phases.iter().find(|(n, _)| *n == "unprotect");
    if let Some((_, h)) = unprotect {
        out.detail("buffer.unprotect_p99_us", h.p99() as f64 / 1e3, "us");
    }
    service_counters(&mut out, &before, &after);
    out.detail(
        "protocol.parse_ns_per_line",
        layers::parse_ns_per_line(&mix.lines(), log),
        "ns",
    );
    let (overhead_us, inprocess_us) =
        frontend_overhead_us(&mix, args.seed, &off.service, &mut off.clients[0], log)?;
    out.detail("tcpfront.overhead_us", overhead_us, "us");
    for (e, us) in mix.entries.iter().zip(inprocess_us) {
        out.detail(format!("inprocess_p50_us.{}", e.pipeline()), us, "us");
    }
    out.detail(
        "concat.concat_slice_us",
        layers::concat_slice_us(log)?,
        "us",
    );
    out.metric("peak_rss_mb", crate::envstamp::peak_rss_mb(), "MB");
    closed_loop_notes(&mut out);
    let client_logs = results.into_iter().map(|(_, log)| log).collect();
    Ok((out, client_logs))
}

/// TCP p50 minus in-process `Session::call` p50, in microseconds, over
/// the same seeded request sequence with one client — what the socket,
/// the line reader, the parser and the reply formatting add to a request
/// — and the in-process p50 of each mix entry.
fn frontend_overhead_us(
    mix: &Mix,
    seed: u64,
    service: &PipelineService,
    client: &mut Client,
    log: &mut SpanLog,
) -> Result<(f64, Vec<f64>), String> {
    log.span("probe.tcpfront", |_| {
        let calls: Vec<(String, mozart_serve::Request)> = mix
            .entries
            .iter()
            .map(|e| match parse_line(e.line.trim_end()) {
                Ok(ClientLine::Call(name, req)) => Ok((name, req)),
                other => Err(format!("mix line {:?} parsed as {other:?}", e.line)),
            })
            .collect::<Result<_, _>>()?;
        let session = service.session();
        let mut silent = SpanLog::new(Instant::now(), 0, false);
        let mut tcp_us = Vec::new();
        let mut direct_us: Vec<Vec<f64>> = mix.entries.iter().map(|_| Vec::new()).collect();
        let mut rng = client_rng(seed, CLIENTS);
        let start = Instant::now();
        for i in 0..FRONTEND_PROBE_REQUESTS {
            if i >= 20 && start.elapsed() >= FRONTEND_PROBE_WINDOW {
                break;
            }
            // Each drawn request goes down both paths.
            let e = mix.draw(&mut rng);
            let t0 = Instant::now();
            let reply = client.request(&mix.entries[e].line, &mut silent);
            tcp_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if !reply_is_correct(reply, &mix.entries[e].reference) {
                return Err(format!("front-end probe got {reply:?}"));
            }
            let (name, req) = &calls[e];
            let t0 = Instant::now();
            let resp = session
                .call(name, req)
                .map_err(|e| format!("in-process call: {e}"))?;
            direct_us[e].push(t0.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(resp);
        }
        let all_direct: Vec<f64> = direct_us.iter().flatten().copied().collect();
        Ok((
            median(&tcp_us) - median(&all_direct),
            direct_us.iter().map(|us| median(us)).collect(),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_draw_is_reproducible_and_follows_the_weights() {
        let mix = Mix::generate(11);
        let draws = |seed| {
            let mut rng = client_rng(seed, 0);
            (0..4000).map(|_| mix.draw(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draws(5), draws(5));
        assert_ne!(draws(5), draws(6));
        let share = |e| draws(5).iter().filter(|&&d| d == e).count() as f64 / 4000.0;
        for (e, want) in [(0, 0.50), (1, 0.25), (2, 0.15), (3, 0.10)] {
            assert!((share(e) - want).abs() < 0.03, "entry {e}: {}", share(e));
        }
        // Same seed, same request lines; another seed, other inputs.
        assert_eq!(Mix::generate(11).lines(), mix.lines());
        assert_ne!(Mix::generate(12).lines(), mix.lines());
        // Clients of one run draw different sequences.
        let mut other = client_rng(5, 1);
        let other: Vec<_> = (0..4000).map(|_| mix.draw(&mut other)).collect();
        assert_ne!(other, draws(5));
    }

    #[test]
    fn replies_are_checked_against_the_reference() {
        let reference = [1234.5678901, 0.25];
        assert!(reply_is_correct(
            "OK call_sum=1234.567890 put_sum=0.250000",
            &reference
        ));
        assert!(reply_is_correct(
            "OK call_sum=1234.567890 put_sum=0.250000 trace=17",
            &reference
        ));
        assert!(!reply_is_correct(
            "OK call_sum=1234.567990 put_sum=0.250000",
            &reference
        ));
        assert!(!reply_is_correct("OK call_sum=1234.567890", &reference));
        assert!(!reply_is_correct("ERR saturated: queue full", &reference));
        assert!(!reply_is_correct(
            "OK call_sum=abc put_sum=0.25",
            &reference
        ));
        assert!(!reply_is_correct("", &reference));
    }

    #[test]
    fn a_wrong_reference_fails_every_request() {
        let mut mix = Mix::generate(3);
        let mut log = SpanLog::new(Instant::now(), 0, false);
        let mut served = setup(&mix, false, &mut log).unwrap();
        let epoch = Instant::now();
        let targets = served.clients.iter_mut().map(|c| vec![c]).collect();
        let results = drive(&mix, 3, 0.05, targets, epoch, false);
        let failed: u64 = results.iter().map(|(t, _)| t[0].failed).sum();
        assert_eq!(failed, 0, "served replies agree with the base library");

        for e in &mut mix.entries {
            e.reference.iter_mut().for_each(|r| *r += 1.0);
        }
        let targets = served.clients.iter_mut().map(|c| vec![c]).collect();
        let results = drive(&mix, 3, 0.05, targets, epoch, false);
        let attempted: usize = results.iter().map(|(t, _)| t[0].ops.latency_s.len()).sum();
        let failed: u64 = results.iter().map(|(t, _)| t[0].failed).sum();
        assert!(attempted > 0);
        assert_eq!(failed, attempted as u64);
    }
}
