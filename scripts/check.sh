#!/usr/bin/env bash
# Builds and tests three configurations: the default RelWithDebInfo build, an
# ASAN+UBSan build, and a TSan build running the concurrency tests. Run from
# the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== default build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== asan+ubsan build =="
cmake -B build-asan -S . -DASAN=ON >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== bench_vectorized smoke (asan) =="
# Tiny row count: exercises the batch pipeline (scan/filter/project/join/
# limit, plus the vectorized+parallel composition) under ASAN, and the
# RELOPT_BENCH_JSON_DIR dump paths, without benchmark-scale runtime.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-asan/bench/bench_vectorized 2000

echo "== bench_expr smoke (asan) =="
# Tiny row count: drives the compiled batch expression engine (arithmetic,
# CASE, OR-chains, NULL/string functions, expression sort and group keys)
# under ASAN. The binary itself asserts zero fallback rows and identical
# page reads / result rows between row and batch modes.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-asan/bench/bench_expr 2000

echo "== bench_aggregate smoke (asan) =="
# Tiny row count: exercises the partitioned hash aggregation matrix (grouped
# low/high cardinality + global, row/batch x parallelism 1/2/4) under ASAN.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-asan/bench/bench_aggregate 2000

echo "== bench_serving smoke (asan) =="
# Tiny query count: drives the multi-session serving harness (1/2/4/8
# sessions, prepared + text modes, plan cache on vs off) under ASAN. The
# binary itself asserts zero errors, nonzero cache hits when enabled, and
# checksum equality between cache-on and cache-off runs.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-asan/bench/bench_serving 20

echo "== metrics smoke (asan) =="
# Corpus attribution check: the global MetricsRegistry page-I/O counters must
# match the per-statement deltas and the summed EXPLAIN ANALYZE attribution
# across the differential corpus, row/batch x parallelism 1/2/4/8.
./build-asan/tests/relopt_tests \
  --gtest_filter='*IntrospectionMatrixTest*:IntrospectionTest.*'

echo "== feedback smoke (asan) =="
# Cardinality-feedback loop under ASAN: store semantics, harvest/override
# round trips, plan-cache re-optimization, and the feedback-on-vs-off
# differential corpus (results may never change, only plans).
./build-asan/tests/relopt_tests --gtest_filter='*Feedback*'

echo "== bench_feedback smoke (asan) =="
# Tiny row count: drives all four cardinality arms (nostats / estimates /
# feedback x1 / converged) and asserts identical results with the converged
# plan reading no more pages than the estimate-picked one.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-asan/bench/bench_feedback 2000

echo "== bench_join_order smoke (asan) =="
# Shrunk sweeps: DPccp vs DP-bushy cost parity on every topology, the chain
# scaling comparison, and the clique budget-fallback ladder. The binary
# itself asserts cost equality and the expected ladder strategies.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-asan/bench/bench_join_order smoke

echo "== tsan build (concurrency tests) =="
cmake -B build-tsan -S . -DRELOPT_TSAN=ON >/dev/null
cmake --build build-tsan -j "$JOBS"
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'ThreadPool|BufferPoolStress|ParallelDifferential|Vectorized|Aggregate|Executor|JoinExec|SortExec|Metrics|QueryHistory|Introspection|LoggingConcurrency|PlanCache|PreparedStatement|SessionConcurrency|SessionHistory|Feedback'

echo "== metrics smoke (tsan) =="
# Same attribution check with instrumented atomics: counter updates come from
# Gather worker threads, so the agreement also proves quiesce-before-capture.
./build-tsan/tests/relopt_tests \
  --gtest_filter='*IntrospectionMatrixTest*:*LoggingConcurrencyTest*'

echo "== bench_vectorized smoke (tsan) =="
# The par2 block drives whole batches through Gather worker threads; TSan
# checks the batch hand-off and the PageCursor shared-latch discipline.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-tsan/bench/bench_vectorized 2000

echo "== bench_expr smoke (tsan) =="
# The expression corpus under instrumented atomics: compiled kernels feed the
# fallback metric counter from worker-adjacent code paths.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-tsan/bench/bench_expr 2000

echo "== bench_aggregate smoke (tsan) =="
# Parallel rows accumulate into per-worker partitions and merge across the
# barrier; TSan checks the shared-state hand-off and the disjoint merge/emit.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-tsan/bench/bench_aggregate 2000

echo "== bench_serving smoke (tsan) =="
# Up to 8 sessions hammer the shared plan cache, statement lock, and query
# history concurrently; TSan checks every cross-session hand-off.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-tsan/bench/bench_serving 20

echo "== bench_feedback smoke (tsan) =="
# The shared FeedbackStore takes concurrent record/lookup traffic from the
# harvest and optimize paths; TSan checks the store's locking discipline.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-tsan/bench/bench_feedback 2000

echo "== bench_join_order smoke (tsan) =="
# The enumeration is single-threaded; this run covers the metrics-export
# atomics the optimizer feeds after each planned statement.
RELOPT_BENCH_JSON_DIR="$(mktemp -d)" ./build-tsan/bench/bench_join_order smoke

echo "All checks passed."
