#!/usr/bin/env bash
# Regenerate BENCH_PR10.json — wall-time + factorisation-count snapshot
# of the simulator hot path (AC sweep, `evaluate`, full case-4 run), the
# sparse-kernel and device-model counters, the evaluate-latency
# histogram percentiles, and the scenario-sweep yield row (corner × MC
# grid through the batch engine). Writes to the
# repo root; `scripts/bench_check.sh` diffs it against the committed
# BENCH_PR9.json baseline.
set -eu

cd "$(dirname "$0")/.."

cargo run --release -q -p losac-bench --bin bench_snapshot
