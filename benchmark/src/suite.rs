//! `suite`: every workload, each run in a fresh child process (allocator
//! state and peak memory are per run), untraced and traced, into one
//! result file. `compare`: two result files against the bounds in
//! `BENCHMARK.json` — the A/A check when both are the same commit.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::contract::{END_TO_END, WORKLOADS};
use crate::envstamp::{bench_dir, stamp};
use crate::json::Json;
use crate::stats::{median, quartiles, spread};
use crate::{flags, DETAIL_PREFIX};

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.pretty()).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// `BENCHMARK.json`, one directory above `benchmark/`.
fn benchmark_json() -> Result<Json, String> {
    read_json(&bench_dir().join("../BENCHMARK.json"))
}

/// One child run: its human-readable lines are passed through, its last
/// two lines are the detail object and the result object.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().and_then(|l| Json::parse(l).ok());
    let detail = lines
        .pop()
        .and_then(|l| l.strip_prefix(DETAIL_PREFIX))
        .and_then(|l| Json::parse(l).ok());
    for line in &lines {
        println!("{line}");
    }
    let (Some(result), Some(detail)) = (result, detail) else {
        return Err(format!(
            "{workload} (seed {seed}, trace {}) printed no result; exit {:?}",
            u8::from(trace),
            output.status.code()
        ));
    };
    let mut pairs = vec![("seed".to_string(), Json::Num(seed as f64))];
    for doc in [result, detail] {
        if let Json::Obj(members) = doc {
            pairs.extend(members);
        }
    }
    Ok(Json::Obj(pairs))
}

fn value_of(run: &Json, group: &str, metric: &str) -> Option<f64> {
    run.get(group)?.get(metric)?.get("value")?.as_f64()
}

pub fn run_suite(args: &[String]) -> Result<bool, String> {
    let (mut seed, mut seconds, mut runs) = (1u64, 10.0f64, 1usize);
    let mut out_dir: PathBuf = bench_dir().join("results");
    for (key, value) in flags(args)? {
        let bad = || format!("--{key} {value:?} is not valid");
        match key {
            "seed" => seed = value.parse().map_err(|_| bad())?,
            "seconds" => seconds = value.parse().map_err(|_| bad())?,
            "runs" => runs = value.parse::<usize>().map_err(|_| bad())?.max(1),
            "out" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag --{key}")),
        }
    }
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let spec = benchmark_json()?;
    let why = |name: &str| -> Json {
        spec.get("workloads")
            .and_then(Json::as_arr)
            .and_then(|ws| {
                ws.iter()
                    .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
            })
            .and_then(|w| w.get("why").cloned())
            .unwrap_or(Json::Null)
    };

    let mut all_correct = true;
    let mut workloads = Vec::new();
    let mut overheads = Vec::new();
    let mut events = Vec::new();
    for name in WORKLOADS {
        let mut untraced = Vec::new();
        for r in 0..runs {
            untraced.push(run_child(name, seed + r as u64, seconds, false)?);
        }
        let traced = run_child(name, seed, seconds, true)?;
        for run in untraced.iter().chain([&traced]) {
            all_correct &= run.get("correct") == Some(&Json::Bool(true));
        }
        overheads.push((
            name.to_string(),
            value_of(&traced, "metrics", "trace_overhead").map_or(Json::Null, Json::Num),
        ));
        // Each traced child left its spans next to the results; the
        // suite's trace.json is all of them, one `pid` per workload.
        let trace_path = bench_dir().join(format!("results/trace.{name}.json"));
        if let Some(Json::Arr(evs)) = read_json(&trace_path)?.get("traceEvents").cloned() {
            events.extend(evs);
        }
        workloads.push((
            name.to_string(),
            Json::obj([
                ("why", why(name)),
                ("runs", Json::Arr(untraced)),
                ("traced", traced),
            ]),
        ));
    }

    let mut env = match stamp(seed, seconds) {
        Json::Obj(pairs) => pairs,
        _ => unreachable!("the stamp is an object"),
    };
    env.push(("runs_per_workload".into(), Json::Num(runs as f64)));
    env.push(("trace_overhead".into(), Json::Obj(overheads)));
    let doc = Json::obj([("env", Json::Obj(env)), ("workloads", Json::Obj(workloads))]);
    write_json(&out_dir.join("latest.json"), &doc)?;
    std::fs::write(
        out_dir.join("trace.json"),
        Json::obj([("traceEvents", Json::Arr(events))]).to_string(),
    )
    .map_err(|e| format!("writing trace.json: {e}"))?;

    println!("\n== end-to-end medians over {runs} run(s) per workload ==");
    print!("{:<14}", "workload");
    for (metric, unit) in END_TO_END {
        print!(" {:>18}", format!("{metric} [{unit}]"));
    }
    println!(" {:>12}", "fail_ratio");
    for (name, w) in doc.get("workloads").and_then(Json::as_obj).unwrap_or(&[]) {
        let runs = w.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
        print!("{name:<14}");
        for (metric, _) in END_TO_END {
            print!(" {:>18.6}", median(&values(runs, metric)));
        }
        let sum = |key: &str| -> f64 {
            runs.iter()
                .filter_map(|r| r.get(key).and_then(Json::as_f64))
                .sum()
        };
        println!(" {:>12.6}", sum("failed") / sum("attempted").max(1.0));
    }
    println!("results: {}", out_dir.join("latest.json").display());
    println!("spans:   {}", out_dir.join("trace.json").display());
    if !all_correct {
        eprintln!("mozart-benchmark: at least one workload returned incorrect results");
    }
    Ok(all_correct)
}

/// The values of one end-to-end metric over a workload's untraced runs.
fn values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| value_of(r, "metrics", metric))
        .collect()
}

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread of a side is wider than the bound: the
    /// comparison cannot tell a regression from noise.
    Unresolved,
}

/// Hold B's runs against A's for one metric. `setup_s` is excused from
/// the spread test (a handful of set-ups per run cannot be as steady as
/// thousands of operations), not from the median test.
pub fn judge(
    a: &[f64],
    b: &[f64],
    lower_is_better: bool,
    bound: f64,
    gate_spread: bool,
) -> Verdict {
    let widest = [spread(a), spread(b)]
        .into_iter()
        .flatten()
        .fold(0.0, f64::max);
    if gate_spread && widest > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse = if lower_is_better {
        mb > ma * (1.0 + bound)
    } else {
        mb < ma * (1.0 - bound)
    };
    if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

pub fn run_compare(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes two result files".into());
    };
    let (a, b) = (read_json(Path::new(a_path))?, read_json(Path::new(b_path))?);
    let spec = benchmark_json()?;
    let bounds: Vec<(String, bool, f64)> = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();

    let quart = |v: &[f64]| match quartiles(v) {
        Some([q1, _, q3]) => format!("[{q1:.5}, {q3:.5}]"),
        None => "[n/a]".to_string(),
    };
    println!("A = {a_path}\nB = {b_path}");
    println!(
        "{:<14} {:<10} {:>12} {:>24} {:>12} {:>24} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "B/A", "bound"
    );
    let mut clean = true;
    for name in WORKLOADS {
        let runs = |doc: &Json| -> Vec<Json> {
            doc.get("workloads")
                .and_then(|w| w.get(name))
                .and_then(|w| w.get("runs"))
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
                .unwrap_or_default()
        };
        let (ra, rb) = (runs(&a), runs(&b));
        for (metric, lower, bound) in &bounds {
            let (va, vb) = (values(&ra, metric), values(&rb, metric));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{name}: {metric} is missing from a result file"));
            }
            let verdict = judge(&va, &vb, *lower, *bound, metric != "setup_s");
            clean &= verdict == Verdict::Ok;
            println!(
                "{name:<14} {metric:<10} {:>12.5} {:>24} {:>12.5} {:>24} {:>9.4} {:>6.2}  {}",
                median(&va),
                quart(&va),
                median(&vb),
                quart(&vb),
                median(&vb) / median(&va),
                bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("B/A is B's median over A's median, the base of the ratio.");
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_ok_worse_and_unresolved() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        let noisy = [10.0, 14.0, 7.0, 12.0, 9.0];
        // Lower is better: 15% slower breaks a 10% bound, not a 20% one.
        assert_eq!(judge(&steady, &slower, true, 0.10, true), Verdict::Worse);
        assert_eq!(judge(&steady, &slower, true, 0.20, true), Verdict::Ok);
        // An improvement is never "worse".
        assert_eq!(judge(&slower, &steady, true, 0.10, true), Verdict::Ok);
        // Higher is better: the same numbers read the other way.
        assert_eq!(judge(&slower, &steady, false, 0.10, true), Verdict::Worse);
        assert_eq!(judge(&steady, &slower, false, 0.10, true), Verdict::Ok);
        // A spread wider than the bound decides nothing, unless excused.
        assert_eq!(
            judge(&steady, &noisy, true, 0.10, true),
            Verdict::Unresolved
        );
        assert_eq!(judge(&steady, &noisy, true, 0.10, false), Verdict::Ok);
        // Single runs have no spread; only the medians are compared.
        assert_eq!(judge(&[10.0], &[10.5], true, 0.10, true), Verdict::Ok);
    }
}
