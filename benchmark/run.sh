#!/usr/bin/env bash
# One command: build the shipped phoenix-server (root workspace) and the load
# generator (this directory's own workspace) into one target directory, then
# run the benchmark.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh --smoke      every workload and oracle in about 20 s
#   benchmark/run.sh              all four workloads, untraced then traced
#
# Run from anywhere; it works from the repo root. The last line of standard
# output of a --workload run is the result object BENCHMARK.json describes.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# The server binary is whatever the root workspace ships; the benchmark only
# adds a package beside it. Build output goes to standard error.
cargo build --release --offline --quiet -p phoenix-server 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
bin="$CARGO_TARGET_DIR/release/phoenix-benchmark"

if [ $# -gt 0 ]; then
    exec "$bin" "$@"
fi

seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
for workload in point_read durable_write tpch_phoenix crash_resume; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace "$trace"
    done
done
