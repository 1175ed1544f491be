#!/usr/bin/env bash
# The whole benchmark in one command: builds bgq-perf, runs the six
# workloads (5 fresh-process repeats each, tracing off), then the separate
# traced run, prints every metric by name and checks the outputs.
#   benchmark/run.sh [--seed N] [--reps N] [--quick]
# Results: benchmark/out/run.json (what `bgq-perf compare` reads) and
# benchmark/out/trace.json (Chrome trace of the traced run).
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out
exec cargo run --release --quiet -- run --out out/run.json --trace out/trace.json "$@"
