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
# must not break the offline gate.
echo "==> cargo clippy -D warnings"
if command -v cargo-clippy >/dev/null 2>&1; then
    if ! cargo clippy -q --all-targets -- -D warnings; then
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
# --workspace so the bench binaries the later gates invoke
# (batch_sweep, table1_cases) are guaranteed to exist.
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

# Batch engine integration: the 4-case Table-1 batch must be bitwise
# identical to serial run_case whether one worker or four execute it.
echo "==> batch engine integration (1 worker)"
if ! LOSAC_LOG=off LOSAC_ENGINE_WORKERS=1 cargo test -q --release --test batch_engine; then
    echo "FAIL: batch integration (1 worker)"
    fail=1
fi

echo "==> batch engine integration (4 workers)"
if ! LOSAC_LOG=off LOSAC_ENGINE_WORKERS=4 cargo test -q --release --test batch_engine; then
    echo "FAIL: batch integration (4 workers)"
    fail=1
fi

# Scenario-sweep determinism: a seeded corner × temperature × Monte-Carlo
# sweep through the engine must produce bitwise-identical yield/Cpk
# statistics at 1 and 4 workers (the test runs both counts internally),
# the nominal scenario must match the historical path bit-for-bit, and
# corner-aware acceptance must report the per-metric worst case.
echo "==> scenario sweep determinism gate (yield/Cpk, 1 vs 4 workers)"
if ! LOSAC_LOG=off cargo test -q --release --test scenarios; then
    echo "FAIL: scenario sweep determinism"
    fail=1
fi

# Topology smoke gate: every built-in topology, selected by name through
# the registry CLI path, must complete the full parasitic loop — and the
# binary itself asserts the parallel run is bitwise identical to serial.
for topo in folded_cascode telescopic two_stage; do
    echo "==> batch_sweep --topology ${topo}"
    if ! LOSAC_LOG=off ./target/release/batch_sweep --topology "${topo}" --workers 4 \
        >/dev/null; then
        echo "FAIL: topology smoke (${topo})"
        fail=1
    fi
done

# Chaos gates: seeded fault schedules through the batch engine, with the
# fail-point feature on. Outcomes must be bitwise identical at 1 and 4
# workers, panics must stay contained, and budget stops must win over
# hung solvers. (The tier-1 build above runs feature-off, pinning the
# production paths.)
echo "==> chaos suite (1 worker)"
if ! LOSAC_LOG=off LOSAC_CHAOS_WORKERS=1 cargo test -q --release \
    -p losac-engine --features failpoints --test chaos; then
    echo "FAIL: chaos suite (1 worker)"
    fail=1
fi

echo "==> chaos suite (4 workers)"
if ! LOSAC_LOG=off LOSAC_CHAOS_WORKERS=4 cargo test -q --release \
    -p losac-engine --features failpoints --test chaos; then
    echo "FAIL: chaos suite (4 workers)"
    fail=1
fi

echo "==> clippy (failpoints on)"
if command -v cargo-clippy >/dev/null 2>&1; then
    if ! cargo clippy -q -p losac-engine --all-targets --features failpoints -- -D warnings; then
        echo "FAIL: clippy (failpoints)"
        fail=1
    fi
fi

# Hot-path equivalence gates: a restamped linearisation and the eval
# cache must be bitwise identical to a fresh build, and one evaluation
# must do exactly its pinned number of factorisations.
echo "==> simulator equivalence gates"
if ! LOSAC_LOG=off cargo test -q --release -p losac-sizing \
    --test sim_equivalence --test eval_cache_counters; then
    echo "FAIL: simulator equivalence gates"
    fail=1
fi

# Profiler smoke: `--profile` must print an aggregated span tree with the
# flow's top-level span in it.
echo "==> table1_cases --profile smoke"
profile_err="$(mktemp)"
if ! LOSAC_LOG=off ./target/release/table1_cases --profile \
    >/dev/null 2>"$profile_err"; then
    echo "FAIL: table1_cases --profile exited non-zero"
    fail=1
elif ! grep -q "profile (span tree)" "$profile_err" ||
    ! grep -q "^flow " "$profile_err"; then
    echo "FAIL: --profile printed no span tree (see below)"
    cat "$profile_err"
    fail=1
fi
rm -f "$profile_err"

# Progress-stream gate: in --json mode the batch engine streams its
# engine.* events to stderr as JSONL; every line must parse, and the
# final run record on stdout must carry the job-latency histogram.
echo "==> batch_sweep progress stream (JSONL line-by-line)"
events="$(mktemp)"
record="$(mktemp)"
if ! LOSAC_LOG=off ./target/release/batch_sweep --workers 4 --json \
    >"$record" 2>"$events"; then
    echo "FAIL: batch_sweep --workers 4 --json exited non-zero"
    fail=1
elif ! python3 - "$events" "$record" <<'EOF'
import json, sys

names = set()
with open(sys.argv[1]) as fh:
    for i, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"stderr line {i} is not valid JSON: {e}\n{line}")
        if rec.get("v") != 2:
            sys.exit(f"stderr line {i} missing schema version v=2: {line}")
        names.add(rec.get("name"))
for required in ("engine.batch.start", "engine.job.start", "engine.job.done", "engine.batch.done"):
    if required not in names:
        sys.exit(f"progress stream missing event {required!r} (saw {sorted(names)})")
with open(sys.argv[2]) as fh:
    record = json.load(fh)
job_ms = record["parallel"]["job_ms"]
for key in ("p50", "p90", "p99"):
    if key not in job_ms:
        sys.exit(f"run record job_ms missing {key}")
if job_ms["count"] != record["jobs"]:
    sys.exit(f"job_ms.count {job_ms['count']} != jobs {record['jobs']}")
print(f"progress stream OK: {len(names)} event kinds, job_ms p95 present")
EOF
then
    echo "FAIL: progress stream validation"
    fail=1
fi
rm -f "$events" "$record"

# Serving smoke gate: start the daemon on an ephemeral loopback port,
# run two concurrent clients against it, require their results bitwise
# identical to an in-process offline run, drain, and check the daemon
# exits 0. A second daemon over the same cache directory must then
# answer from the persistent cache (cache_hit > 0 in its counters).
echo "==> losac-serve smoke (2 clients, bitwise vs offline, drain)"
serve_cache="$(mktemp -d)"
serve_log="$(mktemp)"
serve_smoke() {
    local label="$1"
    shift
    LOSAC_LOG=off ./target/release/losac-serve --addr 127.0.0.1:0 --workers 2 \
        --cache-dir "$serve_cache" >"$serve_log" &
    local serve_pid=$!
    local serve_addr=""
    for _ in $(seq 1 100); do
        serve_addr="$(sed -n 's/.*"addr":"\([^"]*\)".*/\1/p' "$serve_log" | head -n 1)"
        [ -n "$serve_addr" ] && break
        if ! kill -0 "$serve_pid" 2>/dev/null; then break; fi
        sleep 0.1
    done
    if [ -z "$serve_addr" ]; then
        echo "FAIL: losac-serve printed no listening frame ($label)"
        kill "$serve_pid" 2>/dev/null
        wait "$serve_pid" 2>/dev/null
        return 1
    fi
    if ! LOSAC_LOG=off ./target/release/serve_bench --addr "$serve_addr" \
        --clients 2 --cases 1,2 --shutdown drain "$@"; then
        echo "FAIL: serve_bench ($label)"
        kill "$serve_pid" 2>/dev/null
        wait "$serve_pid" 2>/dev/null
        return 1
    fi
    if ! wait "$serve_pid"; then
        echo "FAIL: losac-serve did not exit 0 after drain ($label)"
        return 1
    fi
    return 0
}
if ! serve_smoke "cold" --verify-offline; then
    fail=1
# Warm restart over the same cache dir: the persisted entries must
# produce verified hits.
elif ! serve_smoke "warm restart" --expect-cache-hits; then
    fail=1
fi
rm -rf "$serve_cache"
rm -f "$serve_log"

# Hot-path regression gate against the committed PR-9 baseline.
echo "==> bench_check (BENCH_PR10 vs BENCH_PR9 baseline)"
if ! scripts/bench_check.sh; then
    echo "FAIL: bench_check"
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "CI: FAILED"
    exit 1
fi
echo "CI: OK"
