#!/usr/bin/env bash
# Regenerate target/bench_snapshot.json — wall-time + factorisation-count
# snapshot of the simulator hot path (AC sweep, `evaluate`, full case-4 run), the
# sparse-kernel and device-model counters, the evaluate-latency
# histogram percentiles, and the scenario-sweep yield row (corner × MC
# grid through the batch engine). The committed BENCH_PR*.json files are
# history and stay untouched; `scripts/bench_check.sh` diffs the fresh
# snapshot against the committed BENCH_PR9.json baseline.
set -eu

cd "$(dirname "$0")/.."

cargo run --release -q -p losac-bench --bin bench_snapshot
