#!/usr/bin/env bash
# The full correctness pipeline, in dependency order:
#
#   1. analyze     tools/analyzer/papyrus_analyze.py self-test + tree-wide
#                  run of its one 15-rule catalogue (intra-process,
#                  message-flow and tree-hygiene rules — raw-mutex,
#                  direct-send, trace-add, ...) + wire-version vs HEAD;
#                  findings are archived as build/analyze_findings.json;
#                  needs no compiler toolchain, so it is never skipped —
#                  spec drift (PROTOCOL.json vs src/core/wire.h) fails here
#   2. build+test  default (RelWithDebInfo) build with -DPAPYRUS_WERROR=ON
#                  (a new compiler warning fails the stage; pinned because
#                  GCC 12's -O3 Release build false-positives -Wrestrict on
#                  std::string concatenation), full ctest suite
#   3. fault       fault matrix: the whole ctest suite re-run under a
#                  canned correctness-neutral PAPYRUSKV_FAULTS profile
#                  (message delay + duplication) — every suite must still
#                  pass with the recovery paths doing real work; a red run
#                  prints the PAPYRUSKV_FAULT_SEED to reproduce it with.
#                  Both ctest stages run with the one observability switch
#                  on (PAPYRUSKV_OBS=build/flight/<stage>: stats, trace,
#                  flight dumps), and a failure
#                  archives that directory as build/flight_<stage>.tar.gz
#                  (next to build/analyze_findings.json)
#   4. tsa         Clang build with -Werror=thread-safety
#                  (skipped with a notice if clang++ is not installed)
#   5. clang-tidy  concurrency/bugprone checks (skipped if not installed)
#   6. sanitizers  TSan, ASan, UBSan builds re-running the
#                  concurrency-sensitive test subset (async_test and
#                  fault_test included, so the submission pipeline and the
#                  retry/recovery paths get the TSan treatment)
#   7. bench       micro_kv + fig06_basic + micro_kv_async + repl_failover
#                  smoke runs with the metrics hook:
#                  each writes an aggregate BENCH_<name>.json snapshot at
#                  the repo root (committed, so metric drift shows in
#                  review); micro_kv runs with PAPYRUSKV_OBS=<dir>
#                  (stats + trace + flight, overhead bound: E14);
#                  repl_failover runs 4 ranks under a 180s timeout (a
#                  hang archives its obs dir and fails the stage), times
#                  its own barrier-bracketed windows, and the victim's
#                  flight dump must record the crash; then
#                  perfbench --smoke runs of hot_sync (gets on MemTable-
#                  resident keys), ingest (flush -> compaction -> reopen
#                  -> read-back) and nvm_read (gets over SSTables), each
#                  checking every value byte for byte
#
# Any stage failing fails the script (set -e); the summary line at the end
# only prints on full success.  Stages skipped for missing toolchains are
# listed in the summary, and under CI=1 any skip fails the run (a CI
# builder without clang is a misconfigured builder, not a green one).
# scripts/check.sh remains the shorter developer loop (build + ctest + one
# sanitizer).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"
SAN_TESTS=(obs_test store_test core_test net_test mutex_test async_test fault_test)
# Correctness-neutral faults only: delay and duplication stress the retry
# and idempotence machinery without making any op legitimately fail (drops
# and crashes belong in tests/fault/, where the expected failures are
# asserted — here every suite must still pass verbatim).
FAULT_PROFILE="net.msg.delay=0.05,net.msg.dup=0.05"
FAULT_SEED="${PAPYRUSKV_FAULT_SEED:-1234}"
SKIPPED=()

# Flight-recorder post-mortems (obs/flight.h): the ctest stages run with
# PAPYRUSKV_OBS pointed under here so any rank that times out or crashes
# leaves a dump; on a red stage the dumps (plus stats and traces) are
# archived next to build/analyze_findings.json for the same tooling to
# pick up.  `archive_flight <tag> [dir]` archives dir (default FLIGHT_DIR).
FLIGHT_DIR="build/flight"
archive_flight() {
  local tag="$1" dir="${2:-${FLIGHT_DIR}}"
  if compgen -G "${dir}/*" >/dev/null; then
    tar -czf "build/flight_${tag}.tar.gz" -C "${dir}" .
    echo "ci.sh: flight-recorder dumps archived -> build/flight_${tag}.tar.gz"
  else
    echo "ci.sh: no flight-recorder dumps were produced"
  fi
}

# Per-stage wall-clock accounting: `stage <name> <header>` closes the
# previous stage's timer and opens the next; the summary line at the end
# carries one <name>=<seconds>s entry per stage.
STAGE_SUMMARY=()
CUR_STAGE=""
CUR_T0=0
stage() {
  if [ -n "${CUR_STAGE}" ]; then
    STAGE_SUMMARY+=("${CUR_STAGE}=$((SECONDS - CUR_T0))s")
  fi
  CUR_STAGE="$1"
  CUR_T0=${SECONDS}
  if [ -n "$1" ]; then
    echo "== $2 =="
  fi
}

stage analyze "[1/7] analyze"
python3 tools/analyzer/papyrus_analyze.py --self-test
# Tree-wide run; wire-version discipline is diff-driven, so gate
# the working tree's edits against HEAD (no-op on a clean tree).  The
# machine-readable findings are archived even when the run fails, so a red
# stage still leaves build/analyze_findings.json for tooling to pick up.
mkdir -p build
python3 tools/analyzer/papyrus_analyze.py --diff-base HEAD \
  --json build/analyze_findings.json

stage build-test "[2/7] build + ctest"
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPAPYRUS_WERROR=ON \
  >/dev/null
cmake --build build -j "${JOBS}"
rm -rf "${FLIGHT_DIR}" && mkdir -p "${FLIGHT_DIR}"
if ! PAPYRUSKV_OBS="${FLIGHT_DIR}/ctest" \
    ctest --test-dir build --output-on-failure -j "${JOBS}"; then
  archive_flight build-test
  exit 1
fi

stage fault "[3/7] fault matrix (PAPYRUSKV_FAULTS=${FAULT_PROFILE})"
rm -rf "${FLIGHT_DIR}" && mkdir -p "${FLIGHT_DIR}"
if ! PAPYRUSKV_FAULTS="${FAULT_PROFILE}" PAPYRUSKV_FAULT_SEED="${FAULT_SEED}" \
    PAPYRUSKV_OBS="${FLIGHT_DIR}/fault" \
    ctest --test-dir build --output-on-failure -j "${JOBS}"; then
  echo "ci.sh: fault matrix FAILED under seed ${FAULT_SEED} — reproduce with:"
  echo "  PAPYRUSKV_FAULTS=${FAULT_PROFILE} PAPYRUSKV_FAULT_SEED=${FAULT_SEED} \\"
  echo "    ctest --test-dir build --output-on-failure"
  archive_flight fault
  exit 1
fi

stage tsa "[4/7] clang thread-safety analysis"
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
        -DPAPYRUS_THREAD_SAFETY=ON >/dev/null
  cmake --build build-tsa -j "${JOBS}"
else
  echo "clang++ not installed — skipping (annotations are no-ops under GCC;"
  echo "install clang and rerun for the -Werror=thread-safety gate)"
  SKIPPED+=(thread-safety)
fi

stage clang-tidy "[5/7] clang-tidy"
if command -v clang-tidy >/dev/null 2>&1 && [ -f build-tsa/compile_commands.json ]; then
  find src tools -name '*.cc' -print0 |
    xargs -0 -n 8 -P "${JOBS}" clang-tidy -p build-tsa --quiet
else
  echo "clang-tidy (or its compilation database) not available — skipping"
  SKIPPED+=(clang-tidy)
fi

stage sanitizers "[6/7] sanitizers"
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
export ASAN_OPTIONS="halt_on_error=1"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1"
for san in thread address undefined; do
  echo "-- build (-fsanitize=${san}) --"
  cmake -B "build-${san}san" -S . -DPAPYRUS_SANITIZE="${san}" >/dev/null
  cmake --build "build-${san}san" -j "${JOBS}" --target "${SAN_TESTS[@]}"
  for t in "${SAN_TESTS[@]}"; do
    echo "--- ${san}: ${t} ---"
    "./build-${san}san/tests/${t}"
  done
done

stage bench "[7/7] bench snapshots (BENCH_*.json)"
BENCH_TMP="$(mktemp -d)"
trap 'rm -rf "${BENCH_TMP}"' EXIT
# micro_kv with every observability channel on (stats, causal trace,
# flight dumps) — the E14 overhead guard's configuration (bound: <5%,
# EXPERIMENTS.md).
PAPYRUSKV_OBS="${BENCH_TMP}/mkv_obs" \
  ./build/bench/micro_kv --ranks=2 --iters=20000 --repo="${BENCH_TMP}/mkv"
# Scaled-down fig06: the flush/get path across every storage model.
./build/bench/fig06_basic --ranks=2 --iters=4 --scale=0 \
  --repo="${BENCH_TMP}/fig06"
# Async pipeline: remote-put batching vs one-round-trip-per-op sync puts
# at 8 ranks (DESIGN.md §9); the snapshot carries the sync/async KRPS
# gauges so the batching speedup is part of the results trajectory.
./build/bench/micro_kv_async --ranks=8 --iters=1000 \
  --repo="${BENCH_TMP}/mka"
# Replication failover at 4 ranks (DESIGN.md §12): the bench times its six
# barrier-bracketed windows itself; the snapshot carries before/dip/after
# KRPS plus the per-window put rates (bench.w<k>_ops).  The bench writes
# its own obs dir (<repo>/obs), where the victim's (rank 3's) flight dump
# must record the crash.  PAPYRUSKV_TIMEOUT_MS=250: on a single-core
# builder the promoted rank serves two partitions and the default 50ms
# ladder sits below its loaded service time (retry livelock).  The run can
# stall after the promotion (ROADMAP item 1); the timeout turns that stall
# into a red stage with the obs dir archived, instead of a hung job.
if ! PAPYRUSKV_TIMEOUT_MS=250 timeout 180 \
    ./build/bench/repl_failover --ranks=4 --iters=200 \
    --repo="${BENCH_TMP}/rfo"; then
  echo "ci.sh: repl_failover failed or hit its 180s timeout"
  archive_flight bench "${BENCH_TMP}/rfo/obs"
  exit 1
fi
grep -q '"kind": "crash"' "${BENCH_TMP}/rfo/obs/flight.rank3.json"
ls -l BENCH_micro_kv.json BENCH_fig06_basic.json BENCH_micro_kv_async.json \
  BENCH_repl_failover.json
# The MemTable index (hot_sync: every key stays MemTable-resident) and the
# store's chunked write / scan path end to end: perfbench exits non-zero
# on any wrong, missing or failed result.
for w in hot_sync ingest nvm_read; do
  if ! python3 perfbench/run.py --workload "${w}" --smoke --seed 1 \
      --seconds 2 > "${BENCH_TMP}/perfbench_${w}.txt"; then
    cat "${BENCH_TMP}/perfbench_${w}.txt"
    echo "ci.sh: perfbench ${w} --smoke failed"
    exit 1
  fi
  tail -1 "${BENCH_TMP}/perfbench_${w}.txt"
done

stage "" ""
echo
echo "ci.sh: stage times: ${STAGE_SUMMARY[*]}"
if [ "${#SKIPPED[@]}" -gt 0 ]; then
  echo "ci.sh: OK (skipped: ${SKIPPED[*]})"
  if [ "${CI:-0}" = "1" ]; then
    echo "ci.sh: FAIL — CI=1 forbids skipped stages; install the missing"
    echo "clang toolchain so ${SKIPPED[*]} run(s) for real"
    exit 1
  fi
else
  echo "ci.sh: OK"
fi
