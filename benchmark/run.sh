#!/usr/bin/env bash
# The one command of the repository benchmark: builds `mozart-benchmark`
# in release mode and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload (the form the driver uses); the last line
#       of standard output is the result as one JSON object
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--runs <r>] [--out <dir>]
#       every workload, untraced and traced, each run in its own process;
#       writes results/latest.json and results/trace.json
#   benchmark/run.sh --aa [--seed <n>] [--seconds <s>] [--runs <r>]
#       the suite twice on this commit and `compare` between the two: the
#       A/A check (default 10 runs per workload and side, seeds n..n+9)
#   benchmark/run.sh compare <A.json> <B.json>
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export MOZART_BENCHMARK_DIR="$here"

target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr so standard output stays the benchmark's.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" 1>&2
bin="$target/release/mozart-benchmark"

case "${1:-}" in
--workload | compare)
    exec "$bin" "$@"
    ;;
--aa)
    shift
    runs=10
    rest=()
    while [ $# -gt 0 ]; do
        case "$1" in
        --runs) runs="$2"; shift 2 ;;
        *) rest+=("$1"); shift ;;
        esac
    done
    "$bin" suite --runs "$runs" --out "$here/results/aa-a" "${rest[@]}"
    "$bin" suite --runs "$runs" --out "$here/results/aa-b" "${rest[@]}"
    exec "$bin" compare "$here/results/aa-a/latest.json" "$here/results/aa-b/latest.json"
    ;;
*)
    exec "$bin" suite "$@"
    ;;
esac
