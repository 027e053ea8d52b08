#!/usr/bin/env bash
# Hermetic CI for the TP-GNN reproduction: build, test, and smoke-bench the
# whole workspace with ZERO network access. Everything must resolve from
# in-repo path dependencies alone — no crates.io, no vendored registry.
#
# Policy (see README.md "Hermetic build"): no external registry
# dependencies may be added to any Cargo.toml. RNG lives in crates/rng,
# property testing in tpgnn_rng::check, bench timing in tpgnn_bench::timing.
set -euo pipefail
cd "$(dirname "$0")/.."

# --offline makes any accidental registry dependency a hard failure here,
# even on machines that do have network access.
export CARGO_NET_OFFLINE=true

echo "== cargo build --release (offline) =="
cargo build --release --workspace --offline

echo
echo "== cargo test -q (offline) =="
cargo test -q --workspace --offline

echo
echo "== frozen benchmark package: build + test (offline) =="
# benchmark/ is a standalone package outside the workspace that compiles
# against the library API (TpGnn, IncrementalScorer, ServeConfig, ...); a
# change that breaks that surface or its smoke test fails here.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo
echo "== cross-thread-count determinism (TPGNN_THREADS=1 vs 4) =="
# The parallel execution layer guarantees bitwise-identical results at any
# pool width; run the determinism suite under both a forced-sequential and
# a 4-wide pool so a violation fails CI on any machine.
TPGNN_THREADS=1 cargo test -q --offline --test determinism
TPGNN_THREADS=4 cargo test -q --offline --test determinism

echo
echo "== cargo clippy -D warnings (offline) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo
echo "== cargo bench -- --smoke (offline) =="
cargo bench --workspace --offline -- --smoke

echo
echo "== benchmark regression gate (bench_compare vs committed baselines) =="
# The smoke bench step above rewrote results/bench_*.json; recover the
# committed copies offline via `git show` and fail on median regressions
# past a noise-aware allowance on the named hot rows. The training_smoke
# row is pinned at 5%: that is the telemetry-disabled overhead budget —
# tracing off must stay within noise of the pre-telemetry baseline.
# bench_capacity's committed baseline is a full (non-smoke) run, so its
# comparison self-skips on the smoke-flag mismatch.
compare_baseline_dir=$(mktemp -d)
trap 'rm -rf "$compare_baseline_dir"' EXIT
for suite in bench_models bench_serve bench_capacity; do
  if ! git show "HEAD:results/${suite}.json" > "$compare_baseline_dir/${suite}.json" 2>/dev/null; then
    echo "CI WARN: no committed baseline for results/${suite}.json; skipping its gate" >&2
    continue
  fi
  case "$suite" in
    bench_models) rows=(--row "training_smoke/TP-GNN-SUM/forum_java=0.05") ;;
    bench_serve)  rows=(--row "serve/loadgen" --row "serve/run_mixed_traffic") ;;
    *)            rows=() ;;
  esac
  cargo run --release --offline -p tpgnn-bench --bin bench_compare -- \
    --baseline "$compare_baseline_dir/${suite}.json" \
    --fresh "results/${suite}.json" \
    "${rows[@]}"
done

echo
echo "== traced smoke run (TPGNN_TRACE=1 obs_smoke) =="
# obs_smoke validates span/event structure from the inside; CI additionally
# asserts the trace file exists, is non-empty, and every line parses.
TPGNN_TRACE=1 cargo run --release --offline -p tpgnn-bench --bin obs_smoke
trace_file=results/trace-smoke.jsonl
[ -s "$trace_file" ] || { echo "CI FAIL: $trace_file missing or empty" >&2; exit 1; }
while IFS= read -r line; do
  case "$line" in
    "{"*"}") ;;
    *) echo "CI FAIL: non-JSON line in $trace_file: $line" >&2; exit 1 ;;
  esac
done < "$trace_file"
echo "trace OK: $(wc -l < "$trace_file") JSONL records in $trace_file"

echo
echo "== traced serving smoke (TPGNN_TRACE=1 serve_smoke) =="
# serve_smoke drives clean and fault-injected chaos traffic through the
# resident SessionServer and validates the serve.request spans and serve.*
# metrics series from the outside; CI additionally asserts the trace file
# exists, is non-empty, and every line parses.
TPGNN_TRACE=1 cargo run --release --offline -p tpgnn-bench --bin serve_smoke
serve_trace=results/trace-serve-smoke.jsonl
[ -s "$serve_trace" ] || { echo "CI FAIL: $serve_trace missing or empty" >&2; exit 1; }
while IFS= read -r line; do
  case "$line" in
    "{"*"}") ;;
    *) echo "CI FAIL: non-JSON line in $serve_trace: $line" >&2; exit 1 ;;
  esac
done < "$serve_trace"
echo "trace OK: $(wc -l < "$serve_trace") JSONL records in $serve_trace"

echo
echo "== obs_report over the smoke artifacts =="
# The analysis tool must parse whatever the traced smokes just wrote: span
# breakdowns from the trace JSONL plus the metrics sidecar top-op table.
# Sections whose artifact a given run does not produce degrade to a note.
cargo run --release --offline -p tpgnn-bench --bin obs_report -- --run smoke
cargo run --release --offline -p tpgnn-bench --bin obs_report -- --run serve-smoke

echo
echo "== live-telemetry smoke (TPGNN_TRACE=1 telemetry_smoke) =="
# telemetry_smoke serves traced chaos traffic with a fast snapshot ticker
# and SLO tracking on, asserts the live JSONL series and Prometheus-style
# exposition are readable WHILE the server runs, re-derives every record's
# trace id offline, reconstructs a session timeline joined purely on trace
# ids, and proves a hard-aborted child still leaves readable artifacts.
TPGNN_TRACE=1 cargo run --release --offline -p tpgnn-bench --bin telemetry_smoke

echo
echo "== chaos smoke (seeded fault schedules, --smoke) =="
# Every injector type across 10 seeded schedules: zero panics, bounded
# reorder buffer, typed rejections reconciling exactly with injected
# counts, and a zero-fault schedule that reproduces the direct loader
# bitwise (including training losses). The binary exits non-zero on any
# reconciliation failure.
cargo run --release --offline -p tpgnn-bench --bin chaos_smoke -- --smoke

echo
echo "== crash-recovery smoke (child hard-abort + journal recovery) =="
# recover_smoke aborts a child process mid-stream (no flush, torn journal
# tail), recovers from the journal in the parent, finishes the traffic, and
# asserts every score/counter/ledger entry is bitwise-identical to an
# uninterrupted run. Exits non-zero on any divergence.
cargo run --release --offline -p tpgnn-bench --bin recover_smoke

echo
echo "== storage chaos smoke (seeded I/O fault schedules, --smoke) =="
# storage_chaos drives every durability path (checkpoints, dataset io,
# telemetry snapshots, raw vfs traffic, the serving journal) under seeded
# FaultVfs schedules covering every injector kind — short writes, ENOSPC,
# fsync/rename failure, transients, read corruption — and asserts zero
# panics, no silent corruption, exact ledger/counter reconciliation, and
# bitwise kill/recover under injected journal faults at pool widths 1 and
# 4. Exits non-zero on any failure.
cargo run --release --offline -p tpgnn-bench --bin storage_chaos -- --smoke

echo
echo "CI OK: hermetic build, full test suite, smoke benchmarks, bench regression gate, traced smoke, serving smoke, obs_report, telemetry smoke, chaos smoke, recovery smoke, storage chaos."
