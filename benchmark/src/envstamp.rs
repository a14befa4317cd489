//! The environment a result was measured in. A number without its
//! machine, build and settings cannot be compared with another.

use std::path::{Path, PathBuf};

use crate::contract::WORKERS;
use crate::json::Json;

/// The `benchmark/` directory: where `run.sh` lives and results go.
/// `run.sh` exports it; a binary started by hand falls back to where it
/// was compiled.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("MOZART_BENCHMARK_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn read_trimmed(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// A sysfs cache size such as `2048K` in bytes.
fn cache_bytes(index: u32) -> Option<f64> {
    let raw = read_trimmed(format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))?;
    let (digits, scale) = match raw.chars().last()? {
        'K' => (&raw[..raw.len() - 1], 1024.0),
        'M' => (&raw[..raw.len() - 1], 1024.0 * 1024.0),
        _ => (&raw[..], 1.0),
    };
    digits.parse::<f64>().ok().map(|n| n * scale)
}

/// The commit of the checkout the benchmark directory sits in, read
/// from `.git` directly (no process is started); "unknown" where the
/// checkout is not a git repository, as in the driver's copy.
fn git_commit() -> String {
    let git = bench_dir().join("../.git");
    let head = match read_trimmed(git.join("HEAD")) {
        Some(h) => h,
        None => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => read_trimmed(git.join(reference))
            .or_else(|| {
                // A packed ref: "<sha> <ref>" lines.
                let packed = read_trimmed(git.join("packed-refs"))?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB; 0
/// where `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The stamp written into every result file.
pub fn stamp(seed: u64, seconds: f64) -> Json {
    let num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    Json::obj([
        ("git_commit", Json::Str(git_commit())),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        ("build_profile", Json::str("release")),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("workers", Json::Num(WORKERS as f64)),
        ("l2_bytes", num(cache_bytes(2))),
        // The hypervisor reports the host's shared L3, not a share that
        // is ours; it is stamped so nobody sizes a working set by it.
        ("reported_l3_bytes", num(cache_bytes(3))),
        (
            "thp_mode",
            read_trimmed("/sys/kernel/mm/transparent_hugepage/enabled")
                .map_or(Json::Null, Json::Str),
        ),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds)),
    ])
}
