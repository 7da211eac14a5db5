#!/usr/bin/env bash
# Correctness gate: a normal build + full ctest run, then a ThreadSanitizer
# build that re-runs the concurrency-sensitive suites (the obs/ metrics hot
# path, the store cache, and the multi-threaded core integration tests).
# The metrics registry is lock-free on the update path, so "TSan-clean"
# is part of its contract — this script is how that is checked.
#
#   scripts/check.sh                 # analyze + build + ctest + TSan subset
#   PAPYRUS_SANITIZE=address scripts/check.sh    # ASan instead of TSan
#   PAPYRUS_SANITIZE=undefined scripts/check.sh  # UBSan instead of TSan
#
# scripts/ci.sh is the superset: every sanitizer, plus the Clang
# -Werror=thread-safety build and clang-tidy when clang is installed.
set -euo pipefail
cd "$(dirname "$0")/.."

SAN="${PAPYRUS_SANITIZE:-thread}"

echo "== analyze =="
python3 tools/analyzer/papyrus_analyze.py

echo "== build (default) =="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"

echo "== ctest (full suite) =="
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "== build (-fsanitize=${SAN}) =="
cmake -B "build-${SAN}san" -S . -DPAPYRUS_SANITIZE="${SAN}" >/dev/null
cmake --build "build-${SAN}san" -j "$(nproc)" --target obs_test store_test \
      core_test net_test mutex_test

echo "== tests under ${SAN} sanitizer =="
# halt_on_error makes any report fail the run instead of just logging it.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
export ASAN_OPTIONS="halt_on_error=1"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1"
for t in obs_test store_test core_test net_test mutex_test; do
  echo "--- ${t} ---"
  "./build-${SAN}san/tests/${t}"
done

echo "check.sh: OK"
