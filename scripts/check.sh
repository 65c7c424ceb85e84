#!/usr/bin/env bash
# CI entry point: configure + build with -Werror, run the full test suite.
#
# Usage: scripts/check.sh [build-dir]
#
# Environment:
#   BENCH_JSON=1        also run the datalog microbenchmarks and write
#                       <build-dir>/BENCH_micro_datalog.json (the
#                       perf-trajectory artifact; CI uploads it and gates
#                       it with scripts/bench_compare.py). Propagated
#                       as-is from the CI workflow env.
#   TEST_TIMEOUT=<sec>  per-test ctest timeout (default 300) so a
#                       livelocked fixpoint or hung server fails fast
#                       instead of hanging the runner.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-check}"
TEST_TIMEOUT="${TEST_TIMEOUT:-300}"

# Docs stay honest: relative links and repo-path references in README.md
# and docs/*.md must resolve. Runs first — it is the cheapest gate.
python3 scripts/check_docs.py

cmake -B "$BUILD_DIR" -S . -DSPARQLOG_WERROR=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSPARQLOG_TEST_TIMEOUT="$TEST_TIMEOUT"
cmake --build "$BUILD_DIR" -j "$(nproc)"
# --timeout is a belt-and-braces cap on top of the per-test TIMEOUT
# property CMake registers from SPARQLOG_TEST_TIMEOUT.
ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error \
  -j "$(nproc)" --timeout "$TEST_TIMEOUT"

# Second pass with asserts enabled (RelWithDebInfo defines NDEBUG): the
# invariant checks in the Datalog core — e.g. round monotonicity in
# Relation::Insert — must actually run in CI.
DEBUG_DIR="$BUILD_DIR-debug"
cmake -B "$DEBUG_DIR" -S . -DSPARQLOG_WERROR=ON -DCMAKE_BUILD_TYPE=Debug \
  -DSPARQLOG_TEST_TIMEOUT="$TEST_TIMEOUT"
cmake --build "$DEBUG_DIR" -j "$(nproc)"
ctest --test-dir "$DEBUG_DIR" --output-on-failure --no-tests=error \
  -j "$(nproc)" --timeout "$TEST_TIMEOUT"

if [[ "${BENCH_JSON:-0}" == "1" ]]; then
  if [[ ! -x "$BUILD_DIR/micro_datalog" ]]; then
    echo "BENCH_JSON=1 but $BUILD_DIR/micro_datalog was not built" \
         "(google-benchmark missing?)" >&2
    exit 1
  fi
  # The console table doubles as the job-log benchmark summary; the JSON
  # is the machine-readable trajectory artifact. 3 repetitions per
  # benchmark: bench_compare.py gates on the median, which cuts
  # hosted-runner noise.
  "$BUILD_DIR/micro_datalog" \
    --benchmark_filter='BM_TupleStore|BM_TransitiveClosure|BM_RepeatedQuery|BM_BulkLoad|BM_JoinPlanner|BM_Serving|BM_PathKernel|BM_Update' \
    --benchmark_repetitions=3 \
    --benchmark_out="$BUILD_DIR/BENCH_micro_datalog.json" \
    --benchmark_out_format=json \
    --benchmark_counters_tabular=true
  echo "wrote $BUILD_DIR/BENCH_micro_datalog.json"
  echo "--- benchmark summary ---"
  python3 scripts/bench_compare.py --summarize \
    "$BUILD_DIR/BENCH_micro_datalog.json" || true
fi

echo "check.sh: all green"
