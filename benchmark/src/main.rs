//! `mozart-benchmark`: the repository's benchmark.
//!
//! ```text
//! mozart-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mozart-benchmark suite   [--seed <n>] [--seconds <s>] [--runs <r>] [--out <dir>]
//! mozart-benchmark compare <A.json> <B.json>
//! ```
//!
//! The first form is one run of one workload, as the driver starts it:
//! it prints every metric by name with its unit and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `suite` runs every workload in child
//! processes of that form, untraced and traced, and writes a result
//! file; `compare` holds two result files against the bounds in
//! `BENCHMARK.json`. See `benchmark/README.md`.

mod batch;
mod contract;
mod envstamp;
mod json;
mod layers;
mod serve;
mod spans;
mod stats;
mod suite;

use std::process::ExitCode;
use std::time::Instant;

use contract::{Metric, RunArgs, RunOutput, END_TO_END, PER_LAYER, WORKLOADS};
use json::Json;
use spans::SpanLog;

/// Prefix of the line carrying a run's detail metrics and notes for the
/// suite; the driver reads only the line after it.
pub const DETAIL_PREFIX: &str = "DETAIL ";

fn usage() -> String {
    format!(
        "usage:\n  mozart-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n  \
         mozart-benchmark suite [--seed <n>] [--seconds <s>] [--runs <r>] [--out <dir>]\n  \
         mozart-benchmark compare <A.json> <B.json>",
        WORKLOADS.join("|")
    )
}

/// `--key value` pairs of a command line.
pub fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?;
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        out.push((name, value.as_str()));
    }
    Ok(out)
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    for (key, value) in flags(args)? {
        let bad = || format!("--{key} {value:?} is not valid");
        match key {
            "workload" => workload = Some(value.to_string()),
            "seed" => seed = value.parse().map_err(|_| bad())?,
            "seconds" => seconds = value.parse().map_err(|_| bad())?,
            "trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag --{key}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One run of one workload.
fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let batch = batch::spec(&args.workload);
    if !args.trace {
        return match &batch {
            Some(spec) => batch::run_end_to_end(spec, args),
            None => serve::run_end_to_end(args),
        };
    }
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch, 0, true);
    let (out, mut logs) = match &batch {
        Some(spec) => (batch::run_traced(spec, args, &mut log)?, Vec::new()),
        None => serve::run_traced(args, &mut log, epoch)?,
    };
    logs.insert(0, log);
    write_trace(args, &logs, out)
}

/// Write the traced run's spans as Chrome JSON and add their per-name
/// totals to the output.
fn write_trace(args: &RunArgs, logs: &[SpanLog], mut out: RunOutput) -> Result<RunOutput, String> {
    for (name, (count, total_ns, self_ns)) in spans::totals_by_name(logs) {
        out.detail(format!("span.{name}.count"), count as f64, "count");
        out.detail(format!("span.{name}.total_ms"), total_ns as f64 / 1e6, "ms");
        out.detail(format!("span.{name}.self_ms"), self_ns as f64 / 1e6, "ms");
    }
    out.detail(
        "spans_dropped",
        logs.iter().map(SpanLog::dropped).sum::<u64>() as f64,
        "count",
    );
    let id = WORKLOADS
        .iter()
        .position(|w| *w == args.workload)
        .unwrap_or(0) as u32;
    let dir = envstamp::bench_dir().join("results");
    let path = dir.join(format!("trace.{}.json", args.workload));
    std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                &path,
                spans::chrome_trace(logs, &args.workload, id).to_string(),
            )
        })
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.notes.push(format!(
        "spans written to benchmark/results/trace.{}.json",
        args.workload
    ));
    Ok(out)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// Check that a run reported exactly the metrics its pass owes.
fn check_contract(out: &RunOutput, trace: bool) -> Result<(), String> {
    let want: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let got: Vec<(&str, &str)> = out
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    for w in want {
        if !got.contains(w) {
            return Err(format!("metric {} [{}] was not reported", w.0, w.1));
        }
    }
    for g in &got {
        if !want.contains(g) {
            return Err(format!("metric {} [{}] is not in the contract", g.0, g.1));
        }
    }
    match out.metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("metric {} is not a finite number", m.name)),
        None => Ok(()),
    }
}

fn print_run(args: &RunArgs, out: &RunOutput) {
    println!(
        "# {} seed={} seconds={} pass={}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    for m in out.metrics.iter().chain(&out.detail) {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<44} {:>16} count\n{:<44} {:>16} count",
        "attempted", out.attempted, "failed", out.failed
    );
    for note in &out.notes {
        println!("note: {note}");
    }
    println!(
        "{DETAIL_PREFIX}{}",
        Json::obj([
            ("detail", metrics_json(&out.detail)),
            (
                "notes",
                Json::Arr(out.notes.iter().map(Json::str).collect())
            ),
        ])
    );
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(out.failed == 0)),
            ("attempted", Json::Num(out.attempted as f64)),
            ("failed", Json::Num(out.failed as f64)),
            ("metrics", metrics_json(&out.metrics)),
        ])
    );
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("mozart-benchmark: refusing to measure a debug build; use benchmark/run.sh");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("suite") => suite::run_suite(&args[1..]),
        Some("compare") => suite::run_compare(&args[1..]),
        Some("--help" | "-h") | None => Err(usage()),
        Some(_) => parse_run_args(&args).and_then(|args| {
            let out = run(&args)?;
            check_contract(&out, args.trace)?;
            print_run(&args, &out);
            Ok(out.failed == 0)
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // Results were printed, and some were wrong.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mozart-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_args_parse_as_the_driver_passes_them() {
        let args = parse_run_args(&strings(&[
            "--workload",
            "serve.mix",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, "serve.mix");
        assert_eq!((args.seed, args.seconds, args.trace), (42, 10.0, true));
        assert!(parse_run_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_run_args(&strings(&["--seed", "1"])).is_err());
        assert!(parse_run_args(&strings(&["--workload", "serve.mix", "--trace", "2"])).is_err());
        assert!(parse_run_args(&strings(&["--workload", "serve.mix", "--seconds"])).is_err());
    }

    #[test]
    fn contract_check_wants_exactly_the_listed_metrics() {
        let mut out = RunOutput::default();
        for (name, unit) in END_TO_END {
            out.metric(name, 1.0, unit);
        }
        assert_eq!(check_contract(&out, false), Ok(()));
        assert!(check_contract(&out, true).is_err());
        out.metric("extra", 1.0, "ms");
        assert!(check_contract(&out, false).is_err());
        out.metrics.pop();
        out.metrics[0].value = f64::NAN;
        assert!(check_contract(&out, false).is_err());
    }

    /// `BENCHMARK.json` and the tables in `contract.rs` name the same
    /// workloads and metrics with the same units.
    #[test]
    fn benchmark_json_agrees_with_the_contract_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get(field).and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads", "name"), WORKLOADS);
        let pairs = |key: &str| -> Vec<(String, String)> {
            names(key, "name")
                .into_iter()
                .zip(names(key, "unit"))
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), table(&END_TO_END));
        assert_eq!(pairs("per_layer"), table(&PER_LAYER));
    }
}
