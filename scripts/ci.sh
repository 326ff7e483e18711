#!/usr/bin/env bash
# Offline CI gate: formatting, lints (best-effort), and the tier-1
# build+test verification. Everything here runs without network access.
set -u

cd "$(dirname "$0")/.."

fail=0

echo "==> cargo fmt --check"
if ! cargo fmt --all -- --check; then
    echo "FAIL: formatting (run 'cargo fmt')"
    fail=1
fi

# Clippy blocks when the toolchain component is present; an absent clippy
# must not break the offline gate. Every workspace crate is linted, and
# the root clippy.toml's ordered-map ban (no std HashMap or HashSet) is
# enforced with the other lints.
echo "==> cargo clippy -D warnings"
if command -v cargo-clippy >/dev/null 2>&1; then
    if ! cargo clippy -q --workspace --all-targets -- -D warnings; then
        echo "FAIL: clippy"
        fail=1
    fi
else
    echo "WARN: clippy not installed, skipping"
fi

# Docs build warning-free, so no intra-doc link can point at a deleted
# or private item.
echo "==> cargo doc -D warnings"
if ! RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps; then
    echo "FAIL: rustdoc"
    fail=1
fi

echo "==> tier-1: cargo build --release"
# --workspace, so every crate's binaries build, not only the facade's.
if ! cargo build --release --workspace; then
    echo "FAIL: release build"
    fail=1
fi

echo "==> tier-1: cargo test -q"
if ! cargo test -q; then
    echo "FAIL: tests"
    fail=1
fi

# Every workspace crate's tests, in both profiles: checks that guard
# against silent wrong answers must hold with debug assertions off too.
# There are no Cargo features, so these two steps run every test in the
# tree, the batch, scenario, chaos and simulator-equivalence gates
# included: every built-in topology's full loop (tests/topologies.rs),
# the JSONL progress stream (tests/progress_profile.rs), the daemon
# binary's start, ping and drain (crates/serve/tests/serve_e2e.rs) and
# `table1_cases --profile`'s span tree (crates/bench/tests/profile.rs).
echo "==> cargo test --workspace (debug)"
if ! LOSAC_LOG=off cargo test -q --workspace; then
    echo "FAIL: workspace tests (debug)"
    fail=1
fi

echo "==> cargo test --workspace (release)"
if ! LOSAC_LOG=off cargo test -q --release --workspace; then
    echo "FAIL: workspace tests (release)"
    fail=1
fi

# The benchmark package builds against the workspace crates by path, so
# an API change that breaks it shows here, not first when the benchmark
# runs. --locked keeps the step from rewriting perfbench/Cargo.lock.
echo "==> perfbench builds and passes its unit tests"
if ! cargo test -q --release --offline --locked --manifest-path perfbench/Cargo.toml --bins; then
    echo "FAIL: perfbench"
    fail=1
fi

# Hot-path regression gate against the committed PR-9 baseline.
echo "==> bench_check (fresh snapshot vs BENCH_PR9 baseline)"
if ! scripts/bench_check.sh; then
    echo "FAIL: bench_check"
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "CI: FAILED"
    exit 1
fi
echo "CI: OK"
